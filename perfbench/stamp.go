package main

import (
	"bytes"
	"encoding/binary"
)

// Every block the benchmark writes is stamped with its file, offset, writer
// and sequence number, and the rest of the block is a pseudo-random stream
// keyed by the stamp. A read is correct only if the whole block matches the
// stamp it carries, and the stamp names a write the read may legally see.

const (
	stampMagic    = 0x44504342 // "DPCB"
	stampLen      = 24
	prefillWriter = 0xFFFF
)

type stamp struct {
	file   uint32
	off    uint64
	writer uint16
	seq    uint32
}

// fill writes the block content for st into buf (len blockSize).
func fill(buf []byte, st stamp) {
	binary.LittleEndian.PutUint32(buf[0:], stampMagic)
	binary.LittleEndian.PutUint32(buf[4:], st.file)
	binary.LittleEndian.PutUint64(buf[8:], st.off)
	binary.LittleEndian.PutUint16(buf[16:], st.writer)
	binary.LittleEndian.PutUint32(buf[18:], st.seq)
	binary.LittleEndian.PutUint16(buf[22:], 0)
	x := uint64(st.file)<<48 ^ st.off<<8 ^ uint64(st.writer)<<32 ^ uint64(st.seq) ^ 0x9E3779B97F4A7C15
	for i := stampLen; i+8 <= len(buf); i += 8 {
		// splitmix64
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		binary.LittleEndian.PutUint64(buf[i:], z^z>>31)
	}
}

// check parses the stamp of a block read at (file, off) and verifies the
// whole block against it; scratch is a blockSize buffer it may overwrite.
func check(data, scratch []byte, file uint32, off uint64) (stamp, bool) {
	if len(data) != blockSize || binary.LittleEndian.Uint32(data) != stampMagic {
		return stamp{}, false
	}
	st := stamp{
		file:   binary.LittleEndian.Uint32(data[4:]),
		off:    binary.LittleEndian.Uint64(data[8:]),
		writer: binary.LittleEndian.Uint16(data[16:]),
		seq:    binary.LittleEndian.Uint32(data[18:]),
	}
	if st.file != file || st.off != off {
		return st, false
	}
	fill(scratch, st)
	return st, bytes.Equal(data, scratch)
}
