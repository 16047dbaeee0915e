package main

import (
	"fmt"
	"net"
	"time"

	"repro/internal/bbr"
	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/qcrypto"
	"repro/internal/qtpnet"
	"repro/internal/sack"
	"repro/internal/seqspace"
	"repro/internal/tfrc"
)

// minReplay is how long each layer replay keeps repeating its inputs, so
// a fast layer is timed over many calls.
const minReplay = 100 * time.Millisecond

// windowSegs is each workload's send window in segments, the depth at
// which the SACK scoreboard replays run: bulk keeps a full-MSS window
// in flight, upload at most its 64 KiB application window, msg a few
// small segments, churn a single write.
func windowSegs(workload string) int {
	switch workload {
	case "bulk":
		return 256
	case "upload":
		return uploadWindow / 1400
	case "msg":
		return 4
	}
	return 1
}

// meanFrame is the mean size of the sampled frames.
func meanFrame(frames [][]byte) int {
	n := 0
	for _, f := range frames {
		n += len(f)
	}
	return n / max(len(frames), 1)
}

// sessionPair returns two qcrypto sessions keyed as a completed
// handshake would key them.
func sessionPair() (client, server *qcrypto.Session, err error) {
	cPriv, err := qcrypto.GenerateKey()
	if err != nil {
		return nil, nil, err
	}
	sPriv, err := qcrypto.GenerateKey()
	if err != nil {
		return nil, nil, err
	}
	shared, err := qcrypto.Shared(cPriv, sPriv.PublicKey().Bytes())
	if err != nil {
		return nil, nil, err
	}
	c2s, s2c := qcrypto.SessionKeys(shared, qcrypto.TranscriptHash([]byte("connect"), []byte("accept")))
	client, server = qcrypto.NewSession(), qcrypto.NewSession()
	client.SetSendKeys(qcrypto.Epoch1RTT, c2s)
	client.SetRecvKeys(qcrypto.Epoch1RTT, s2c)
	server.SetSendKeys(qcrypto.Epoch1RTT, s2c)
	server.SetRecvKeys(qcrypto.Epoch1RTT, c2s)
	return client, server, nil
}

// replayAEAD seals and opens the sampled frames: ns per datagram each.
func replayAEAD(frames [][]byte) (seal, open float64, err error) {
	client, server, err := sessionPair()
	if err != nil {
		return 0, 0, err
	}
	sealed := make([][]byte, len(frames))
	for i := range sealed {
		sealed[i] = make([]byte, 0, len(frames[i])+64)
	}
	var sealT, openT time.Duration
	n := 0
	for start := time.Now(); time.Since(start) < 2*minReplay; {
		t0 := time.Now()
		for i, f := range frames {
			if sealed[i], err = client.SealAppend(sealed[i][:0], 7, f); err != nil {
				return 0, 0, err
			}
		}
		sealT += time.Since(t0)
		t0 = time.Now()
		for _, d := range sealed {
			if _, _, err = server.Open(d); err != nil {
				return 0, 0, err
			}
		}
		openT += time.Since(t0)
		n += len(frames)
	}
	return float64(sealT) / float64(n), float64(openT) / float64(n), nil
}

// replayHandshake prices one handshake's key agreement for both sides:
// two key pairs, two ECDH computations, transcript hashes and key
// schedules. It returns µs per handshake.
func replayHandshake() (float64, error) {
	connect, accept := make([]byte, 96), make([]byte, 96)
	n := 0
	start := time.Now()
	for time.Since(start) < minReplay {
		for side := 0; side < 2; side++ {
			mine, err := qcrypto.GenerateKey()
			if err != nil {
				return 0, err
			}
			peer, err := qcrypto.GenerateKey()
			if err != nil {
				return 0, err
			}
			shared, err := qcrypto.Shared(mine, peer.PublicKey().Bytes())
			if err != nil {
				return 0, err
			}
			qcrypto.SessionKeys(shared, qcrypto.TranscriptHash(connect, accept))
		}
		n++
	}
	return float64(time.Since(start)) / 1e3 / float64(n), nil
}

// parsedFrame is a sampled frame and its decoding into the codec's
// structs.
type parsedFrame struct {
	raw []byte
	h   packet.Header
	sk  *packet.SACK
	fb  *packet.Feedback
}

// replayCodec parses every sampled frame's header and, for feedback
// frames, its SACK or receiver-report body, then re-encodes them: ns
// per frame each way.
func replayCodec(frames [][]byte) (encode, parse float64) {
	parsed := make([]parsedFrame, 0, len(frames))
	for _, f := range frames {
		pf := parsedFrame{raw: f}
		payload, err := pf.h.Parse(f)
		if err != nil {
			continue
		}
		switch pf.h.Type {
		case packet.TypeSACK:
			pf.sk = new(packet.SACK)
			if pf.sk.Parse(payload) != nil {
				pf.sk = nil
			}
		case packet.TypeFeedback:
			pf.fb = new(packet.Feedback)
			if pf.fb.Parse(payload) != nil {
				pf.fb = nil
			}
		}
		parsed = append(parsed, pf)
	}
	if len(parsed) == 0 {
		return 0, 0
	}
	var scratch parsedFrame
	scratch.sk, scratch.fb = new(packet.SACK), new(packet.Feedback)
	buf := make([]byte, 0, 4096)
	var encT, parseT time.Duration
	n := 0
	for start := time.Now(); time.Since(start) < 2*minReplay; {
		t0 := time.Now()
		for i := range parsed {
			pf := &parsed[i]
			buf = pf.h.AppendTo(buf[:0])
			if pf.sk != nil {
				buf, _ = pf.sk.AppendTo(buf)
			} else if pf.fb != nil {
				buf, _ = pf.fb.AppendTo(buf)
			}
		}
		encT += time.Since(t0)
		t0 = time.Now()
		for i := range parsed {
			pf := &parsed[i]
			payload, err := scratch.h.Parse(pf.raw)
			if err != nil {
				continue
			}
			if pf.sk != nil {
				_ = scratch.sk.Parse(payload)
			} else if pf.fb != nil {
				_ = scratch.fb.Parse(payload)
			}
		}
		parseT += time.Since(t0)
		n += len(parsed)
	}
	return float64(encT) / float64(n), float64(parseT) / float64(n)
}

// replaySACK runs the sender scoreboard at the workload's window —
// every call adds one segment and acknowledges the oldest — and the
// receiver's reassembler over in-order segments with every 64th pair
// swapped. It returns ns per OnConnSACK call and per segment through
// OnData+Pop.
func replaySACK(workload string, size int) (onSACK, reasm float64) {
	w := windowSegs(workload)
	payload := make([]byte, size)
	sb := sack.NewSendBuffer(0)
	seq := seqspace.Seq(1)
	for ; int(seq) <= w; seq++ {
		sb.AddStream(0, seq, seq, payload)
	}
	var t time.Duration
	n := 0
	for start := time.Now(); time.Since(start) < minReplay; n++ {
		now := time.Duration(n) * time.Microsecond
		sb.AddStream(now, seq, seq, payload)
		seq++
		t0 := time.Now()
		sb.OnConnSACK(now, seq-seqspace.Seq(w), nil)
		t += since(t0)
	}
	onSACK = float64(t) / float64(n)

	ra := sack.NewReassembler(1, 0)
	t, n = 0, 0
	for start := time.Now(); time.Since(start) < minReplay; n += 2 {
		s := seqspace.Seq(n + 1)
		first, second := s, s+1
		if n%128 == 0 {
			first, second = second, first
		}
		now := time.Duration(n) * time.Microsecond
		t0 := time.Now()
		ra.OnData(now, first, payload, false)
		ra.OnData(now, second, payload, false)
		for {
			b, ok := ra.Pop()
			if !ok {
				break
			}
			bufpool.PutChunk(b)
		}
		t += since(t0)
	}
	return onSACK, float64(t) / float64(n)
}

// replayCC prices BBR's per-ack update and the classic TFRC receiver's
// per-packet update (with one packet in 100 lost), ns per call.
func replayCC(size int) (onAcked, tfrcRecv float64) {
	c := bbr.New(bbr.Config{MSS: core.DefaultMSS})
	c.Start(0)
	c.SeedRTT(0, 200*time.Microsecond)
	var t time.Duration
	n := 0
	for start := time.Now(); time.Since(start) < minReplay; n++ {
		now := time.Duration(n) * 10 * time.Microsecond
		seq := seqspace.Seq(n + 1)
		c.OnSent(now, seq, size)
		t0 := time.Now()
		c.OnAcked(now+200*time.Microsecond, seq, size, 200*time.Microsecond)
		t += since(t0)
	}
	onAcked = float64(t) / float64(n)

	r := tfrc.NewReceiver(tfrc.ReceiverConfig{SegmentSize: size})
	t, n = 0, 0
	seq := seqspace.Seq(1)
	for start := time.Now(); time.Since(start) < minReplay; n++ {
		if n%100 == 99 {
			seq++
		}
		now := time.Duration(n) * 10 * time.Microsecond
		t0 := time.Now()
		r.OnData(now, seq, size, 200*time.Microsecond)
		t += since(t0)
		seq++
	}
	return onAcked, float64(t) / float64(n)
}

// replayDeliver injects pre-encoded acknowledgment frames of the
// workload's profile into a plaintext client endpoint's Deliver — the
// demux, service and delivery path with the socket and AEAD taken
// away. Sealed connections refuse injected cleartext, hence plaintext.
func replayDeliver(workload string) (float64, error) {
	prof := map[string]core.Profile{"bulk": bulkProfile(), "upload": bulkProfile(), "msg": msgProfile(), "churn": churnProfile()}[workload]
	l, err := qtpnet.Listen("127.0.0.1:0", core.Permissive(4*msgTarget), qtpnet.WithNoEncryption())
	if err != nil {
		return 0, err
	}
	accepted := make(chan struct{})
	defer func() {
		l.Close()
		<-accepted
	}()
	go func() {
		defer close(accepted)
		for {
			if _, err := l.Accept(); err != nil {
				return
			}
		}
	}()
	client, err := qtpnet.NewEndpoint("127.0.0.1:0", qtpnet.EndpointConfig{DisableEncryption: true})
	if err != nil {
		return 0, err
	}
	defer client.Close()
	c, err := client.Dial(l.Addr().String(), prof, dialTimeout)
	if err != nil {
		return 0, err
	}
	defer c.Close()

	var payload []byte
	typ := packet.TypeSACK
	if prof.Feedback == packet.FeedbackReceiverLoss {
		typ = packet.TypeFeedback
		fb := packet.Feedback{XRecv: 1 << 17, CumAck: 1}
		payload, err = fb.AppendTo(nil)
	} else {
		sk := packet.SACK{CumAck: 1}
		payload, err = sk.AppendTo(nil)
	}
	if err != nil {
		return 0, err
	}
	// TSEcho far from any real timestamp makes the RTT filter reject
	// the sample, as the repository's endpoint benchmark does.
	hdr := packet.Header{Type: typ, ConnID: c.ID(), TSEcho: 1 << 31, PayloadLen: uint16(len(payload))}
	frame := append(hdr.AppendTo(nil), payload...)
	from := l.Addr().(*net.UDPAddr).AddrPort()
	if !client.Deliver(from, frame) {
		return 0, fmt.Errorf("deliver replay: %v frame not accepted", typ)
	}
	n := 0
	start := time.Now()
	for time.Since(start) < minReplay {
		for i := 0; i < 256; i++ {
			client.Deliver(from, frame)
		}
		n += 256
	}
	return float64(time.Since(start)) / float64(n), nil
}

// replayHarness prices the benchmark's own input generation and
// verification per payload byte, so the reconciliation can set it apart
// from the program's cost.
func replayHarness(workload string, seed uint64) float64 {
	n := 0
	start := time.Now()
	switch workload {
	case "msg":
		var m [msgLen]byte
		var rf reframer
		for time.Since(start) < minReplay {
			for i := 0; i < 256; i++ {
				makeMsg(m[:], seed, uint64(n+i), 0)
				rf.feed(m[:], func(b []byte) { checkMsg(b, seed) })
			}
			n += 256 * msgLen
		}
	default:
		size := churnBytes
		if workload == "bulk" || workload == "upload" {
			size = bulkMinBytes
		}
		buf := make([]byte, size)
		for time.Since(start) < minReplay {
			fillStream(buf, seed)
			var v streamVerifier
			for off := 0; off < size; off += 1400 {
				v.write(buf[off:min(off+1400, size)])
			}
			n += size
		}
	}
	return float64(time.Since(start)) / float64(n)
}
