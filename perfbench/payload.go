package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// splitmix64 is the benchmark's only source of pseudo-randomness: every
// payload byte, message id, size and arrival time derives from the run
// seed through it, so one seed always yields the same inputs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is a seeded splitmix64 stream.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream uint64) *rng {
	return &rng{s: splitmix64(seed ^ splitmix64(stream))}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return splitmix64(r.s)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// fillPattern writes the pseudo-random pattern of key starting at byte
// offset off into dst. Byte i of the pattern is byte i%8 of
// splitmix64(key + i/8), so any slice of it can be regenerated without
// the bytes before it.
func fillPattern(dst []byte, key uint64, off uint64) {
	for len(dst) > 0 {
		w := splitmix64(key + off/8)
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], w)
		n := copy(dst, b[off%8:])
		dst = dst[n:]
		off += uint64(n)
	}
}

// streamHeaderLen is the size of the header that opens every verified
// byte stream (bulk transfers and churn writes): the session key the
// rest of the stream is generated from, then the stream's total length.
const streamHeaderLen = 16

// fillStream writes a whole verified stream for key into b.
func fillStream(b []byte, key uint64) {
	binary.LittleEndian.PutUint64(b[0:], key)
	binary.LittleEndian.PutUint64(b[8:], uint64(len(b)))
	fillPattern(b[streamHeaderLen:], key, streamHeaderLen)
}

var (
	errCorrupt = errors.New("corrupt bytes")
	errOverrun = errors.New("bytes past the announced end")
	errMissing = errors.New("bytes never delivered")
)

// unsplitmix64 inverts splitmix64, so a received pattern word names the
// stream offset it was generated for.
func unsplitmix64(x uint64) uint64 {
	x ^= x>>31 ^ x>>62
	x *= mulInverse(0x94d049bb133111eb)
	x ^= x>>27 ^ x>>54
	x *= mulInverse(0xbf58476d1ce4e5b9)
	x ^= x>>30 ^ x>>60
	return x - 0x9e3779b97f4a7c15
}

// mulInverse returns the inverse of odd a modulo 2^64 (Newton's method).
func mulInverse(a uint64) uint64 {
	x := a
	for i := 0; i < 5; i++ {
		x *= 2 - a*x
	}
	return x
}

// streamVerifier checks a byte stream chunk by chunk as a reader
// receives it: it learns key and length from the header and regenerates
// the expected pattern for each chunk. A chunk that does not continue
// the stream is located by its content: if it matches the pattern
// further on, the bytes in between were lost (counted in missing);
// otherwise the stream is corrupt and err is set.
type streamVerifier struct {
	hdr     [streamHeaderLen]byte
	key     uint64
	total   uint64
	got     uint64 // stream position: bytes consumed plus bytes skipped
	missing uint64 // bytes skipped over by detected gaps
	err     error  // integrity failure: corrupt or overrunning bytes
	scratch []byte
}

// write feeds the next received chunk and returns how many of its bytes
// were verified intact.
func (v *streamVerifier) write(p []byte) int {
	if v.err != nil {
		return 0
	}
	n := 0
	for v.got < streamHeaderLen && len(p) > 0 {
		v.hdr[v.got] = p[0]
		p = p[1:]
		v.got++
		n++
		if v.got == streamHeaderLen {
			v.key = binary.LittleEndian.Uint64(v.hdr[0:])
			v.total = binary.LittleEndian.Uint64(v.hdr[8:])
			if v.total < streamHeaderLen {
				v.err = errCorrupt
				return 0
			}
		}
	}
	if len(p) == 0 {
		return n
	}
	if !v.matches(p, v.got) {
		off, ok := v.locate(p)
		if !ok {
			v.err = fmt.Errorf("%w at offset %d", errCorrupt, v.got)
			return n
		}
		v.missing += off - v.got
		v.got = off
	}
	if v.got+uint64(len(p)) > v.total {
		v.err = errOverrun
		return n
	}
	v.got += uint64(len(p))
	return n + len(p)
}

func (v *streamVerifier) matches(p []byte, off uint64) bool {
	if off+uint64(len(p)) > v.total {
		return false
	}
	if cap(v.scratch) < len(p) {
		v.scratch = make([]byte, len(p))
	}
	want := v.scratch[:len(p)]
	fillPattern(want, v.key, off)
	return bytes.Equal(p, want)
}

// locate finds the stream offset past the current position at which p
// matches the pattern, trying each alignment of its first whole word.
func (v *streamVerifier) locate(p []byte) (uint64, bool) {
	for a := 0; a < 8 && a+8 <= len(p); a++ {
		idx := unsplitmix64(binary.LittleEndian.Uint64(p[a:])) - v.key
		if idx > v.total/8 || idx*8 < uint64(a) {
			continue
		}
		if off := idx*8 - uint64(a); off > v.got && v.matches(p, off) {
			return off, true
		}
	}
	return 0, false
}

// resume starts verifying a stream whose opening chunks, header
// included, never arrived: given the key and length the stream should
// have, it places p by its content and counts everything before it as
// missing. It reports whether p belongs to that stream.
func (v *streamVerifier) resume(key, total uint64, p []byte) bool {
	v.key, v.total, v.got = key, total, streamHeaderLen
	off, ok := v.locate(p)
	if !ok {
		v.key, v.total, v.got = 0, 0, 0
		return false
	}
	v.got, v.missing = off, off
	return true
}

// finish reports the stream's verdict once the reader saw its end.
func (v *streamVerifier) finish() error {
	switch {
	case v.err != nil:
		return v.err
	case v.got < streamHeaderLen || v.got < v.total || v.missing > 0:
		lost := v.missing + v.total - min(v.got, v.total)
		if v.got < streamHeaderLen {
			lost = v.total
		}
		return fmt.Errorf("%w: %d of %d", errMissing, lost, v.total)
	}
	return nil
}

// msgLen is the size of one msg-workload message: due time (ns on the
// run clock), message id, and a pattern derived from the id.
const msgLen = 64

func makeMsg(dst []byte, seed uint64, id uint64, due int64) {
	binary.LittleEndian.PutUint64(dst[0:], uint64(due))
	binary.LittleEndian.PutUint64(dst[8:], id)
	fillPattern(dst[16:msgLen], seed^id, 16)
}

// reframer cuts a stream of msgLen-byte messages back into messages.
// The transport segments by bytes, not by message, so a message may
// straddle two delivered chunks; the partial head waits in buf.
type reframer struct {
	buf [msgLen]byte
	n   int
}

// feed consumes one chunk and calls fn for every completed message; the
// slice passed to fn is valid only during the call.
func (r *reframer) feed(p []byte, fn func(m []byte)) {
	if r.n > 0 {
		k := copy(r.buf[r.n:], p)
		r.n += k
		p = p[k:]
		if r.n < msgLen {
			return
		}
		fn(r.buf[:])
		r.n = 0
	}
	for len(p) >= msgLen {
		fn(p[:msgLen])
		p = p[msgLen:]
	}
	r.n = copy(r.buf[:], p)
}

// checkMsg validates one reframed message against the seed and returns
// its id and due time.
func checkMsg(m []byte, seed uint64) (id uint64, due int64, ok bool) {
	due = int64(binary.LittleEndian.Uint64(m[0:]))
	id = binary.LittleEndian.Uint64(m[8:])
	var want [msgLen - 16]byte
	fillPattern(want[:], seed^id, 16)
	return id, due, string(want[:]) == string(m[16:msgLen])
}
