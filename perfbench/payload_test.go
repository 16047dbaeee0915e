package main

import (
	"errors"
	"strings"
	"testing"
)

func TestUnsplitmixInverts(t *testing.T) {
	for _, x := range []uint64{0, 1, 42, 1 << 63, ^uint64(0)} {
		if got := unsplitmix64(splitmix64(x)); got != x {
			t.Fatalf("unsplitmix64(splitmix64(%d)) = %d", x, got)
		}
	}
}

// chunks cuts b into pieces of the given sizes, cycling through them.
func chunks(b []byte, sizes ...int) [][]byte {
	var out [][]byte
	for i := 0; len(b) > 0; i++ {
		n := min(sizes[i%len(sizes)], len(b))
		out = append(out, b[:n])
		b = b[n:]
	}
	return out
}

func verify(cs [][]byte) (streamVerifier, int) {
	var v streamVerifier
	intact := 0
	for _, c := range cs {
		intact += v.write(c)
	}
	return v, intact
}

func TestStreamVerifierIntact(t *testing.T) {
	b := make([]byte, 100_000)
	fillStream(b, 7)
	v, intact := verify(chunks(b, 1400, 3, 2048, 9))
	if err := v.finish(); err != nil {
		t.Fatalf("intact stream: %v", err)
	}
	if intact != len(b) {
		t.Fatalf("intact bytes %d, want %d", intact, len(b))
	}
}

func TestStreamVerifierCountsLoss(t *testing.T) {
	b := make([]byte, 50_000)
	fillStream(b, 9)
	cs := chunks(b, 2048)

	// A chunk dropped mid-stream: the verifier resynchronises on the next
	// chunk, keeps counting intact bytes, and fails the stream as missing
	// bytes — not as corrupt ones.
	dropped := append(append([][]byte{}, cs[:5]...), cs[6:]...)
	v, intact := verify(dropped)
	err := v.finish()
	if !errors.Is(err, errMissing) {
		t.Fatalf("dropped chunk: err %v, want %v", err, errMissing)
	}
	if v.err != nil {
		t.Fatalf("dropped chunk flagged as an integrity failure: %v", v.err)
	}
	if intact != len(b)-len(cs[5]) || v.missing != uint64(len(cs[5])) {
		t.Fatalf("intact %d missing %d, want %d and %d", intact, v.missing, len(b)-len(cs[5]), len(cs[5]))
	}

	// A truncated stream: the tail never arrives.
	v, _ = verify(cs[:len(cs)-2])
	if err := v.finish(); !errors.Is(err, errMissing) || !strings.Contains(err.Error(), "of 50000") {
		t.Fatalf("truncated stream: %v", err)
	}

	// The opening chunks, header included, dropped: the reader places the
	// first chunk it sees in the stream it must belong to.
	var lost streamVerifier
	if !lost.resume(9, uint64(len(b)), cs[2]) {
		t.Fatal("resume could not place the third chunk")
	}
	intact = 0
	for _, c := range cs[2:] {
		intact += lost.write(c)
	}
	if err := lost.finish(); !errors.Is(err, errMissing) || lost.err != nil || intact != len(b)-2*2048 {
		t.Fatalf("lost header: err %v integrity %v intact %d", err, lost.err, intact)
	}
	// Keys are random 64-bit values; nearby keys would name shifted
	// copies of one pattern.
	if other := (streamVerifier{}); other.resume(0x5eed0f0e4, uint64(len(b)), cs[2]) {
		t.Fatal("resume placed a chunk in another key's stream")
	}

	// Nothing at all.
	var empty streamVerifier
	if err := empty.finish(); !errors.Is(err, errMissing) {
		t.Fatalf("empty stream: %v", err)
	}
}

func TestStreamVerifierCountsCorruption(t *testing.T) {
	b := make([]byte, 20_000)
	fillStream(b, 11)
	bad := append([]byte(nil), b...)
	bad[12_345] ^= 0x40
	v, intact := verify(chunks(bad, 1000))
	if err := v.finish(); !errors.Is(err, errCorrupt) {
		t.Fatalf("flipped bit: err %v, want %v", err, errCorrupt)
	}
	if intact != 12_000 {
		t.Fatalf("intact bytes %d, want the 12000 before the corrupt chunk", intact)
	}

	// A duplicated chunk is not a gap: it cannot be placed after the
	// stream position, so it is an integrity failure.
	cs := chunks(b, 1000)
	dup := append(append(append([][]byte{}, cs[:4]...), cs[2]), cs[4:]...)
	if v, _ := verify(dup); !errors.Is(v.finish(), errCorrupt) {
		t.Fatalf("duplicated chunk: %v", v.finish())
	}

	// Bytes beyond the announced length.
	if v, _ := verify([][]byte{b, b[100:200]}); !errors.Is(v.finish(), errOverrun) && !errors.Is(v.finish(), errCorrupt) {
		t.Fatalf("overrun: %v", v.finish())
	}
}

func TestReframerAcrossChunkBoundaries(t *testing.T) {
	const n = 200
	var stream []byte
	for id := uint64(0); id < n; id++ {
		var m [msgLen]byte
		makeMsg(m[:], 5, id, int64(id)*1000)
		stream = append(stream, m[:]...)
	}
	// Chunk sizes that never line up with message boundaries, including
	// one-byte slivers and chunks holding several messages.
	for _, sizes := range [][]int{{1}, {63}, {65}, {1400}, {7, 130, 1, 64, 2000}} {
		var rf reframer
		var got []uint64
		for _, c := range chunks(stream, sizes...) {
			rf.feed(c, func(m []byte) {
				id, due, ok := checkMsg(m, 5)
				if !ok || due != int64(id)*1000 {
					t.Fatalf("sizes %v: message %d failed its check", sizes, id)
				}
				got = append(got, id)
			})
		}
		if len(got) != n || rf.n != 0 {
			t.Fatalf("sizes %v: reframed %d messages with %d bytes left over, want %d and 0", sizes, len(got), rf.n, n)
		}
		for i, id := range got {
			if id != uint64(i) {
				t.Fatalf("sizes %v: message %d has id %d", sizes, i, id)
			}
		}
	}
}

func TestCheckMsgRejectsCorruption(t *testing.T) {
	var m [msgLen]byte
	makeMsg(m[:], 3, 17, 99)
	if _, _, ok := checkMsg(m[:], 3); !ok {
		t.Fatal("intact message rejected")
	}
	m[40] ^= 1
	if _, _, ok := checkMsg(m[:], 3); ok {
		t.Fatal("corrupt message accepted")
	}
}
