package main

import (
	"math"
	"runtime"
	"time"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/qtp"
)

// Layer replays: each workload's traffic shape driven through the lower
// layers' public functions, without sockets or goroutines, so a layer's
// own cost per frame is measured apart from the system around it.

// clockCost is the cost of one back-to-back time.Now pair, subtracted
// from every individually timed call.
var clockCost = calibrateClock()

func calibrateClock() time.Duration {
	var s []float64
	for i := 0; i < 2000; i++ {
		t0 := time.Now()
		s = append(s, float64(time.Since(t0)))
	}
	return time.Duration(median(s))
}

// since returns the time since t0 less the clock's own cost.
func since(t0 time.Time) time.Duration { return max(time.Since(t0)-clockCost, 0) }

// pipe is one direction of the virtual link between two sans-IO
// connections: a FIFO with serialization at a fixed rate and a fixed
// propagation delay, no loss.
type pipe struct {
	q    []vpkt
	head int
	busy time.Duration
}

type vpkt struct {
	at time.Duration
	b  []byte
}

const (
	linkDelay   = 50 * time.Microsecond
	linkNsPerB  = 10 // 100 MB/s
	replayFrame = 2048
)

func (p *pipe) push(now time.Duration, b []byte) {
	start := max(now, p.busy)
	p.busy = start + time.Duration(len(b)*linkNsPerB)
	p.q = append(p.q, vpkt{at: p.busy + linkDelay, b: b})
}

func (p *pipe) next() (time.Duration, bool) {
	if p.head == len(p.q) {
		return 0, false
	}
	return p.q[p.head].at, true
}

func (p *pipe) pop() []byte {
	b := p.q[p.head].b
	p.q[p.head] = vpkt{}
	p.head++
	if p.head == len(p.q) {
		p.q, p.head = p.q[:0], 0
	}
	return b
}

// qtpReplay is what the sans-IO replay measured.
type qtpReplay struct {
	polled, handled  int
	pollNs, handleNs time.Duration
	allocs           uint64
	// frames samples every 8th polled frame, for the codec and AEAD
	// replays; arena backs the copies so sampling allocates nothing.
	frames [][]byte
	arena  []byte
}

const frameSamples = 1024

// pair is two sans-IO qtp connections joined by a virtual link.
type pair struct {
	a, b   *qtp.Conn
	ab, ba pipe
	free   [][]byte
	r      *qtpReplay
}

// connect replaces the pair's connections with a fresh initiator and
// responder, keeping the link and its buffers, and starts the handshake.
func (p *pair) connect(profile core.Profile) {
	p.a = qtp.NewConn(qtp.Config{Initiator: true, Profile: profile, ConnID: 7})
	p.b = qtp.NewConn(qtp.Config{Constraints: core.Permissive(4 * msgTarget), ConnID: 7})
	for _, q := range []*pipe{&p.ab, &p.ba} {
		for {
			if _, ok := q.next(); !ok {
				break
			}
			p.free = append(p.free, q.pop())
		}
		q.busy = 0
	}
	p.a.Start(0)
}

func (p *pair) buf() []byte {
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free = p.free[:n-1]
		return b[:0]
	}
	return make([]byte, 0, replayFrame)
}

// pump polls every frame c wants to send at now onto out.
func (p *pair) pump(c *qtp.Conn, out *pipe, now time.Duration) {
	for {
		b := p.buf()
		t0 := time.Now()
		f, ok := c.PollFrameAppend(now, b)
		p.r.pollNs += since(t0)
		if !ok {
			p.free = append(p.free, b)
			return
		}
		p.r.polled++
		if p.r.polled%8 == 0 && len(p.r.frames) < frameSamples && len(p.r.arena)+len(f) <= cap(p.r.arena) {
			n := len(p.r.arena)
			p.r.arena = append(p.r.arena, f...)
			p.r.frames = append(p.r.frames, p.r.arena[n:len(p.r.arena):len(p.r.arena)])
		}
		out.push(now, f)
	}
}

// step delivers due frames, polls both sides and returns the time of
// the next event, at least 1µs on and never beyond limit.
func (p *pair) step(now, limit time.Duration) time.Duration {
	for _, d := range []struct {
		in *pipe
		c  *qtp.Conn
	}{{&p.ab, p.b}, {&p.ba, p.a}} {
		for {
			at, ok := d.in.next()
			if !ok || at > now {
				break
			}
			f := d.in.pop()
			t0 := time.Now()
			_ = d.c.HandleFrame(now, f) // stray-frame errors are the engine's to count
			p.r.handleNs += since(t0)
			p.r.handled++
			p.free = append(p.free, f)
		}
	}
	p.pump(p.a, &p.ab, now)
	p.pump(p.b, &p.ba, now)
	next := limit
	if t, ok := p.ab.next(); ok {
		next = min(next, t)
	}
	if t, ok := p.ba.next(); ok {
		next = min(next, t)
	}
	if t, ok := p.a.NextWake(now); ok {
		next = min(next, t)
	}
	if t, ok := p.b.NextWake(now); ok {
		next = min(next, t)
	}
	return min(max(next, now+time.Microsecond), limit)
}

func drainReads(c *qtp.Conn) {
	for {
		b, ok := c.Read()
		if !ok {
			return
		}
		bufpool.PutChunk(b)
	}
}

// replayQTP drives the workload's profile and write pattern through a
// sans-IO connection pair over virtual time.
func replayQTP(workload string, seed uint64) *qtpReplay {
	r := &qtpReplay{frames: make([][]byte, 0, frameSamples), arena: make([]byte, 0, frameSamples*1600)}
	p := &pair{r: r}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	switch workload {
	case "bulk":
		replayBulk(p, 1<<20, bulkWrite)
	case "upload":
		replayBulk(p, uploadWindow, uploadWrite)
	case "msg":
		replayMsg(p, seed)
	case "churn":
		replayChurn(p)
	}
	runtime.ReadMemStats(&ms1)
	r.allocs = ms1.Mallocs - ms0.Mallocs
	return r
}

// replayBulk keeps a send backlog of up to backlog bytes topped up with
// writes of write bytes on the single-stream engine until 40000 frames
// have been polled: 1 MiB in 64 KiB writes for bulk, 64 KiB in 16 KiB
// writes for upload.
func replayBulk(p *pair, backlog, write int) {
	chunk := make([]byte, write)
	p.connect(bulkProfile())
	for now := time.Duration(0); p.r.polled < 40000 && now < time.Minute; {
		if p.a.State() == qtp.StateEstablished {
			for p.a.BacklogLen() <= backlog-write {
				p.a.Write(chunk)
			}
		}
		drainReads(p.b)
		now = p.step(now, time.Minute)
	}
}

// replayMsg writes 64-byte messages at 1000/s Poisson (one connection's
// share of the msg workload) over four streams of the multi-stream
// engine, for 10 s of virtual time.
func replayMsg(p *pair, seed uint64) {
	rg := newRNG(seed, 2000)
	msg := make([]byte, msgLen)
	var streams []uint64
	p.connect(msgProfile())
	var due time.Duration
	const end = 10 * time.Second
	for now := time.Duration(0); now < end+time.Second; {
		if p.a.State() == qtp.StateEstablished && streams == nil {
			for i := 0; i < msgStreams; i++ {
				id, err := p.a.OpenStream(packet.StreamReliableOrdered, 0)
				if err != nil {
					break
				}
				streams = append(streams, id)
			}
			due = now
		}
		for streams != nil && due <= now && due < end {
			p.a.WriteStream(streams[rg.next()%uint64(len(streams))], msg)
			due += time.Duration(-math.Log(1-rg.float()) / (msgRate / msgSlots) * 1e9)
		}
		for {
			_, b, ok := p.b.ReadAny()
			if !ok {
				break
			}
			bufpool.PutChunk(b)
		}
		limit := end + time.Second
		if streams != nil && due < end {
			limit = due
		}
		now = p.step(now, limit)
	}
}

// replayChurn runs 200 short connection lifecycles: handshake, one
// 1 KiB write, CloseSend, teardown.
func replayChurn(p *pair) {
	payload := make([]byte, churnBytes)
	for i := 0; i < 200; i++ {
		p.connect(churnProfile())
		wrote := false
		for now := time.Duration(0); now < 10*time.Second && (p.a.State() != qtp.StateClosed || p.b.State() != qtp.StateClosed); {
			if !wrote && p.a.State() == qtp.StateEstablished {
				p.a.Write(payload)
				p.a.CloseSend()
				wrote = true
			}
			drainReads(p.b)
			now = p.step(now, 10*time.Second)
		}
	}
}
