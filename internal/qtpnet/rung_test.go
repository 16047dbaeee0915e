//go:build linux && (amd64 || arm64)

package qtpnet

import (
	"crypto/sha256"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// The three tests below keep the names they had while io_uring rungs
// existed, so their records stay comparable across that change; each
// now runs on the rungs that remain.

// rungs is the data-path ladder as the endpoint exposes it: the
// portable single-datagram path, batched recvmmsg/sendmmsg with
// offload off, and mmsg with GSO/GRO (the default; it degenerates to
// plain mmsg on a kernel without UDP_SEGMENT).
var rungs = []struct {
	name string
	cfg  EndpointConfig
}{
	{"single", EndpointConfig{DisableBatchIO: true}},
	{"mmsg", EndpointConfig{DisableGSO: true}},
	{"mmsg+gso", EndpointConfig{}},
}

// TestUringRawIntegrity blasts tagged datagrams from many source
// sockets straight into an mmsgIO and checks every datagram arrives
// exactly once, intact, and attributed to its true source. Even
// senders ship their datagrams as GSO trains, so with GRO on the
// reader must slice merged super-datagrams, and with GRO off the
// kernel splits them before the reader sees them.
func TestUringRawIntegrity(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts batchOpts
	}{
		{"gro", batchOpts{}},
		{"nogro", batchOpts{noGSO: true}},
	} {
		t.Run(tc.name, func(t *testing.T) { rawIntegrity(t, tc.opts) })
	}
}

func rawIntegrity(t *testing.T, opts batchOpts) {
	pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	pc.SetReadBuffer(4 << 20)
	m := newPlatformBatchIO(pc, rxBatch, opts).(*mmsgIO)
	if !opts.noGSO && !m.groOn() {
		t.Skip("kernel without UDP_GRO")
	}

	const nSenders = 16
	const perSender = 64
	const payLen = 700
	const trainLen = 4 // datagrams per GSO train on even senders

	type src struct {
		pc   *net.UDPConn
		bio  *mmsgIO
		addr string
	}
	senders := make([]src, nSenders)
	for i := range senders {
		spc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		defer spc.Close()
		senders[i] = src{spc, newPlatformBatchIO(spc, rxBatch, batchOpts{}).(*mmsgIO), spc.LocalAddr().String()}
	}
	trains := senders[0].bio.gsoMaxSegs() >= trainLen

	dst := pc.LocalAddr().(*net.UDPAddr)
	dstAP := dst.AddrPort()
	fill := func(b []byte, i, seq int) {
		b[0], b[1] = byte(i), byte(seq)
		for j := 2; j < payLen; j++ {
			b[j] = byte(i) ^ byte(seq) ^ byte(j)
		}
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		buf := make([]byte, payLen*trainLen)
		for seq := 0; seq < perSender; seq += trainLen {
			for i := range senders {
				if i%2 == 0 && trains {
					for k := 0; k < trainLen; k++ {
						fill(buf[k*payLen:], i, seq+k)
					}
					msg := []ioMsg{{buf: buf, n: len(buf), addr: dstAP, segSize: payLen}}
					if _, err := senders[i].bio.writeBatch(msg); err != nil {
						return
					}
					continue
				}
				for k := 0; k < trainLen; k++ {
					fill(buf, i, seq+k)
					if _, err := senders[i].pc.WriteToUDP(buf[:payLen], dst); err != nil {
						return
					}
				}
			}
			time.Sleep(200 * time.Microsecond)
		}
		// Keepalive flushes so a reader that missed the tail (socket
		// drops under overload are legal) never blocks forever.
		flush := []byte{0xfe}
		for {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
				senders[0].pc.WriteToUDP(flush, dst)
			}
		}
	}()

	got := make(map[[2]byte]int) // (sender, seq) -> count
	ms := make([]ioMsg, rxBatch)
	for i := range ms {
		ms[i].buf = make([]byte, maxDatagram)
	}
	total, merged := 0, 0
	deadline := time.Now().Add(5 * time.Second)
	for total < nSenders*perSender && time.Now().Before(deadline) {
		n, err := m.readBatch(ms)
		if err != nil {
			t.Fatalf("readBatch after %d datagrams: %v", total, err)
		}
		for i := 0; i < n; i++ {
			msg := &ms[i]
			segs := [][]byte{msg.buf[:msg.n]}
			if msg.segSize > 0 && msg.n > msg.segSize {
				if opts.noGSO {
					t.Fatalf("merged read (segSize %d) with GRO off", msg.segSize)
				}
				merged++
				segs = segs[:0]
				for off := 0; off < msg.n; off += msg.segSize {
					segs = append(segs, msg.buf[off:min(off+msg.segSize, msg.n)])
				}
			}
			for _, seg := range segs {
				if len(seg) == 1 && seg[0] == 0xfe {
					continue // keepalive flush
				}
				if len(seg) != payLen {
					t.Fatalf("datagram len %d, want %d (segSize %d, n %d)", len(seg), payLen, msg.segSize, msg.n)
				}
				si, seq := seg[0], seg[1]
				if int(si) >= nSenders || int(seq) >= perSender {
					t.Fatalf("garbage header: sender %d seq %d", si, seq)
				}
				for j := 2; j < payLen; j++ {
					if seg[j] != si^seq^byte(j) {
						t.Fatalf("sender %d seq %d corrupt at byte %d: %#x want %#x",
							si, seq, j, seg[j], si^seq^byte(j))
					}
				}
				if want := senders[si].addr; msg.addr.String() != want {
					t.Fatalf("sender %d seq %d attributed to %s, want %s", si, seq, msg.addr, want)
				}
				got[[2]byte{si, seq}]++
				total++
			}
		}
	}
	var missing, dup int
	for i := 0; i < nSenders; i++ {
		for s := 0; s < perSender; s++ {
			switch got[[2]byte{byte(i), byte(s)}] {
			case 0:
				missing++
			case 1:
			default:
				dup++
			}
		}
	}
	if missing > 0 || dup > 0 {
		t.Fatalf("missing %d, duplicated %d of %d datagrams", missing, dup, nSenders*perSender)
	}
	// A GSO train sent to a GRO socket over loopback arrives unsplit.
	if trains && !opts.noGSO && merged == 0 {
		t.Error("GRO on and senders sent GSO trains, but no read was merged")
	}
	t.Logf("%d datagrams, %d merged reads (gso trains %v, gro %v)", total, merged, trains, m.groOn())
}

// rungTransfer runs a fanout of tagged streams between a fresh client
// and server built with cfg and returns one payload digest per stream
// tag, plus both endpoints' stats once every stream has finished.
// Payloads are deterministic in the tag, so the digests must come out
// identical whatever data path carried them.
func rungTransfer(t *testing.T, cfg EndpointConfig, nConns, perConn int) (sums map[byte][32]byte, cst, sst EndpointStats) {
	t.Helper()
	lcfg := cfg
	lcfg.AcceptInbound = true
	lcfg.Constraints = core.Permissive(2e6)
	srv, err := NewEndpoint("127.0.0.1:0", lcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := NewEndpoint("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	type result struct {
		tag byte
		sum [32]byte
		n   int
		err error
	}
	results := make(chan result, nConns)
	go func() {
		var wg sync.WaitGroup
		for i := 0; i < nConns; i++ {
			conn, err := srv.Accept()
			if err != nil {
				results <- result{err: err}
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				h := sha256.New()
				r := result{tag: 0xff}
				deadline := time.Now().Add(30 * time.Second)
				for !conn.Finished() && time.Now().Before(deadline) {
					chunk, ok := conn.Read(time.Second)
					if !ok {
						continue
					}
					if r.tag == 0xff && len(chunk) > 0 {
						r.tag = chunk[0]
					}
					h.Write(chunk)
					r.n += len(chunk)
					conn.Release(chunk)
				}
				for { // drain what landed after the finish check
					chunk, ok := conn.Read(50 * time.Millisecond)
					if !ok {
						break
					}
					if r.tag == 0xff && len(chunk) > 0 {
						r.tag = chunk[0]
					}
					h.Write(chunk)
					r.n += len(chunk)
					conn.Release(chunk)
				}
				if !conn.Finished() {
					r.err = fmt.Errorf("stream %d incomplete: %d of %d bytes", r.tag, r.n, perConn)
				}
				h.Sum(r.sum[:0])
				results <- r
			}()
		}
		wg.Wait()
	}()

	var wg sync.WaitGroup
	errCh := make(chan error, nConns)
	for i := 0; i < nConns; i++ {
		wg.Add(1)
		go func(tag byte) {
			defer wg.Done()
			conn, err := client.Dial(srv.Addr().String(), core.QTPAF(1e6), 15*time.Second)
			if err != nil {
				errCh <- fmt.Errorf("dial %d: %w", tag, err)
				return
			}
			data := make([]byte, perConn)
			data[0] = tag
			for j := 1; j < perConn; j++ {
				data[j] = tag ^ byte(j) ^ byte(j>>8)
			}
			if _, err := conn.Write(data); err != nil {
				errCh <- fmt.Errorf("write %d: %w", tag, err)
				return
			}
			conn.CloseSend()
		}(byte(i))
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	sums = make(map[byte][32]byte, nConns)
	for i := 0; i < nConns; i++ {
		select {
		case r := <-results:
			if r.err != nil {
				t.Fatal(r.err)
			}
			if r.n != perConn {
				t.Fatalf("stream %d delivered %d bytes, want %d", r.tag, r.n, perConn)
			}
			if _, dup := sums[r.tag]; dup {
				t.Fatalf("stream tag %d delivered twice", r.tag)
			}
			sums[r.tag] = r.sum
		case <-time.After(60 * time.Second):
			t.Fatalf("timed out after %d of %d streams", i, nConns)
		}
	}
	return sums, client.Stats(), srv.Stats()
}

// TestUringByteEquivalence fans 64 tagged streams through each rung of
// the data-path ladder and checks every stream delivers byte-identical
// content on all of them, pinning the rungs to one observable
// behaviour.
func TestUringByteEquivalence(t *testing.T) {
	const nConns = 64
	const perConn = 8 << 10

	// Expected digests computed locally, so a bug shared by every rung
	// still cannot pass.
	want := make(map[byte][32]byte, nConns)
	for i := 0; i < nConns; i++ {
		tag := byte(i)
		data := make([]byte, perConn)
		data[0] = tag
		for j := 1; j < perConn; j++ {
			data[j] = tag ^ byte(j) ^ byte(j>>8)
		}
		want[tag] = sha256.Sum256(data)
	}

	for _, rung := range rungs {
		t.Run(rung.name, func(t *testing.T) {
			got, _, _ := rungTransfer(t, rung.cfg, nConns, perConn)
			if len(got) != nConns {
				t.Fatalf("delivered %d streams, want %d", len(got), nConns)
			}
			for tag, sum := range got {
				if sum != want[tag] {
					t.Errorf("stream %d digest mismatch", tag)
				}
			}
		})
	}
}

// TestUringStatsSurface checks the invariant EndpointStats documents
// for Wakeups: every receive syscall blocks, so on every rung an
// endpoint that moved traffic reports exactly one wakeup per receive
// batch.
func TestUringStatsSurface(t *testing.T) {
	for _, rung := range rungs {
		t.Run(rung.name, func(t *testing.T) {
			_, cst, sst := rungTransfer(t, rung.cfg, 4, 8<<10)
			for side, st := range map[string]EndpointStats{"client": cst, "server": sst} {
				if st.RecvBatches == 0 {
					t.Errorf("%s moved traffic without a receive batch: %v", side, st)
				}
				if st.Wakeups != st.RecvBatches {
					t.Errorf("%s: wakeups %d != receive batches %d", side, st.Wakeups, st.RecvBatches)
				}
			}
		})
	}
}
