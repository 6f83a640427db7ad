package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// hostModules are the host self-time buckets. A CPU-profile sample is
// charged to the module of its innermost frame in the dpc module, so runtime
// work (channel handoff, memmove, allocation) counts against the code that
// caused it. "bench" is the benchmark's own code; "other" is every
// dpc package not listed; "gc" takes samples with no dpc frame at all.
var hostModules = []string{"sim", "cache", "mem", "nvmefs", "pcie", "dispatch", "kvfs", "kv",
	"fabric", "dfs", "ec", "wal", "ssd", "client", "bench", "other", "gc"}

// moduleOf maps a function name to its bucket, or "" if it is not dpc code.
func moduleOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "main."):
		return "bench"
	case strings.HasPrefix(fn, "dpc."):
		return "client"
	case !strings.HasPrefix(fn, "dpc/"):
		return ""
	}
	pkg := strings.TrimPrefix(fn, "dpc/")
	pkg = strings.TrimPrefix(pkg, "internal/")
	if i := strings.IndexAny(pkg, "./"); i >= 0 {
		pkg = pkg[:i]
	}
	switch pkg {
	case "gf256":
		return "ec"
	case "nvme":
		return "nvmefs"
	}
	for _, m := range hostModules {
		if m == pkg {
			return m
		}
	}
	return "other"
}

// hostShares buckets a gzipped pprof CPU profile by module and returns each
// module's share of samples in percent.
func hostShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		mod := "gc"
	frames:
		for _, locID := range s.locs { // leaf first
			for _, fnID := range p.locFuncs[locID] { // innermost inline first
				if m := moduleOf(p.strings[p.funcName[fnID]]); m != "" {
					mod = m
					break frames
				}
			}
		}
		counts[mod] += s.count
		total += s.count
	}
	out := map[string]float64{}
	for _, m := range hostModules {
		out[m] = 100 * ratio(float64(counts[m]), float64(total))
	}
	return out, nil
}

// The decoder below reads the subset of profile.proto the buckets need.

type pbSample struct {
	locs  []uint64
	count int64
}

type pbProfile struct {
	samples  []pbSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

var errProto = errors.New("cpu profile: malformed protobuf")

type pbReader struct{ b []byte }

func (r *pbReader) varint() (uint64, error) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, errProto
	}
	r.b = r.b[n:]
	return v, nil
}

// field reads one field: its number, wire type, varint value or bytes.
func (r *pbReader) field() (num int, wire int, v uint64, data []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = r.varint()
	case 1:
		if len(r.b) < 8 {
			return 0, 0, 0, nil, errProto
		}
		v, r.b = binary.LittleEndian.Uint64(r.b), r.b[8:]
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if n > uint64(len(r.b)) {
				return 0, 0, 0, nil, errProto
			}
			data, r.b = r.b[:n], r.b[n:]
		}
	case 5:
		if len(r.b) < 4 {
			return 0, 0, 0, nil, errProto
		}
		v, r.b = uint64(binary.LittleEndian.Uint32(r.b)), r.b[4:]
	default:
		err = errProto
	}
	return num, wire, v, data, err
}

// uints appends a repeated varint field, packed or not.
func uints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	r := &pbReader{data}
	for len(r.b) > 0 {
		x, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

func parseProfile(b []byte) (*pbProfile, error) {
	p := &pbProfile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	r := &pbReader{b}
	for len(r.b) > 0 {
		num, _, _, data, err := r.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2: // Sample
			if err := p.sample(data); err != nil {
				return nil, err
			}
		case 4: // Location
			if err := p.location(data); err != nil {
				return nil, err
			}
		case 5: // Function
			if err := p.function(data); err != nil {
				return nil, err
			}
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errProto
		}
	}
	return p, nil
}

func (p *pbProfile) sample(b []byte) error {
	var s pbSample
	var vals []uint64
	r := &pbReader{b}
	for len(r.b) > 0 {
		num, wire, v, data, err := r.field()
		if err != nil {
			return err
		}
		switch num {
		case 1:
			s.locs, err = uints(s.locs, wire, v, data)
		case 2:
			vals, err = uints(vals, wire, v, data)
		}
		if err != nil {
			return err
		}
	}
	if len(vals) > 0 {
		s.count = int64(vals[0])
	}
	p.samples = append(p.samples, s)
	return nil
}

func (p *pbProfile) location(b []byte) error {
	var id uint64
	var fns []uint64
	r := &pbReader{b}
	for len(r.b) > 0 {
		num, _, v, data, err := r.field()
		if err != nil {
			return err
		}
		switch num {
		case 1:
			id = v
		case 4: // Line
			lr := &pbReader{data}
			for len(lr.b) > 0 {
				ln, _, lv, _, err := lr.field()
				if err != nil {
					return err
				}
				if ln == 1 {
					fns = append(fns, lv)
				}
			}
		}
	}
	p.locFuncs[id] = fns
	return nil
}

func (p *pbProfile) function(b []byte) error {
	var id uint64
	var name int64
	r := &pbReader{b}
	for len(r.b) > 0 {
		num, _, v, _, err := r.field()
		if err != nil {
			return err
		}
		switch num {
		case 1:
			id = v
		case 2:
			name = int64(v)
		}
	}
	p.funcName[id] = name
	return nil
}
