package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/qtp"
	"repro/internal/qtpnet"
)

// Workload shapes. Every size and rate is fixed here; only the seed
// varies between runs.
const (
	bulkSlots     = 2         // concurrent closed-loop bulk senders
	bulkWrite     = 64 << 10  // bytes per Conn.Write
	bulkMinBytes  = 256 << 10 // smallest transfer
	bulkSpanBytes = 512 << 10 // transfers are uniform in [min, min+span)
	uploadWrite   = 16 << 10  // upload: bytes per Conn.Write
	uploadWindow  = 64 << 10  // upload: written bytes the server may not yet have read
	msgRate       = 2000.0    // aggregate Poisson arrival rate, messages/s
	msgSlots      = 2         // QTPAF connections carrying messages
	msgStreams    = 4         // reliable streams per message connection
	msgTarget     = 256_000   // gTFRC reserved rate per connection, bytes/s
	msgRotateMin  = 600       // a message connection is replaced after
	msgRotateSpan = 800       // uniform [min, min+span) messages
	churnDialers  = 2         // concurrent closed-loop dialers
	churnBytes    = 1 << 10   // one write per lifecycle
	dialTimeout   = 10 * time.Second
	closeTimeout  = 10 * time.Second
	readTimeout   = 200 * time.Millisecond
)

func bulkProfile() core.Profile {
	p := core.QTPLightReliable(0)
	p.Congestion = packet.CongestionBBR
	return p
}

func msgProfile() core.Profile {
	p := core.QTPAF(msgTarget)
	p.MaxStreams = 2 * msgStreams
	return p
}

func churnProfile() core.Profile { return core.QTPLightReliable(0) }

// listen binds the workload's server endpoint with production defaults:
// encryption on, the default read queue and socket buffers, the rung the
// bind-time probe picks, one shard. Every client connection comes up on
// a private endpoint inside qtpnet.Dial, so every handshake is a full
// one: a shared client endpoint would resume from a cached ticket at
// 0-RTT.
func listen(workload string) (*qtpnet.Listener, error) {
	var opts []qtpnet.Option
	if workload == "bulk" || workload == "upload" {
		opts = append(opts, qtpnet.WithCongestion(packet.CongestionBBR))
	}
	return qtpnet.Listen("127.0.0.1:0", core.Permissive(4*msgTarget), opts...)
}

// epCounters is the subset of the server's qtpnet.EndpointStats the
// benchmark reads. Each datagram between client and server crosses the
// server endpoint once, in one direction or the other.
type epCounters struct {
	DgramsIn, DgramsOut, RxCalls, TxCalls, Wakeups uint64
	RecvDrops, SendDrops, OpenFail                 uint64
}

func counters(l *qtpnet.Listener) epCounters {
	s := l.Stats()
	return epCounters{
		DgramsIn: s.DatagramsIn, DgramsOut: s.DatagramsOut,
		RxCalls: s.RecvBatches, TxCalls: s.SendBatches, Wakeups: s.Wakeups,
		RecvDrops: s.RecvDrops, SendDrops: s.SendDrops, OpenFail: s.OpenFailures,
	}
}

func (a epCounters) minus(b epCounters) epCounters {
	return epCounters{a.DgramsIn - b.DgramsIn, a.DgramsOut - b.DgramsOut,
		a.RxCalls - b.RxCalls, a.TxCalls - b.TxCalls, a.Wakeups - b.Wakeups,
		a.RecvDrops - b.RecvDrops, a.SendDrops - b.SendDrops, a.OpenFail - b.OpenFail}
}

// session is one verified byte stream (a bulk or upload transfer or a
// churn write) shared between its client and server goroutines: the
// client stamps when each Write began, the server reports how far it has
// read and the verdict.
type session struct {
	key, total uint64
	writeEnds  []uint64
	writeStart []atomic.Int64
	read       atomic.Uint64 // payload offset the server has read up to
	progress   chan struct{} // signalled, without blocking, as read advances
	verdict    chan error    // one send, by the server reader
	next       int           // server side: first write not yet fully read
}

// harness is one workload pass: the load it drives, the samples and
// counters it collects, and the timed window they are cut to.
type harness struct {
	workload string
	seed     uint64
	epoch    time.Time
	tr       *tracer
	srv      *qtpnet.Listener
	stop     atomic.Bool
	wg       sync.WaitGroup // load goroutines
	srvWG    sync.WaitGroup // server goroutines

	winStart, winEnd atomic.Int64 // run-clock ns; MaxInt64 until set

	verifiedBytes atomic.Int64 // intact payload bytes the server read
	delivered     atomic.Int64 // application messages read intact
	lifecycles    atomic.Int64 // connection lifecycles that closed (Dial → Done)
	attempted     atomic.Int64
	failed        atomic.Int64
	corrupt       atomic.Int64 // integrity failures: altered, reordered or duplicated bytes
	msgsSent      atomic.Int64 // msg workload: messages generated

	mu       sync.Mutex
	sessions map[uint64]*session
	msgLat   []stamped // application message: due time or Write call → last byte read
	dialLat  []stamped // Dial call → return
	late     []stamped // open-loop generator: how late each message was written
	reasons  map[string]int
	qstats   qtp.Stats // summed over every client and server connection
}

func newHarness(workload string, seed uint64, epoch time.Time, tr *tracer, srv *qtpnet.Listener) *harness {
	h := &harness{
		workload: workload, seed: seed, epoch: epoch, tr: tr, srv: srv,
		sessions: make(map[uint64]*session),
		reasons:  make(map[string]int),
	}
	h.winStart.Store(math.MaxInt64)
	h.winEnd.Store(math.MaxInt64)
	return h
}

func (h *harness) now() int64 { return int64(time.Since(h.epoch)) }

func (h *harness) inWindow(t int64) bool {
	return t >= h.winStart.Load() && t < h.winEnd.Load()
}

// note records a failure reason for the report; fail also counts a
// failed operation.
func (h *harness) note(reason string) {
	h.mu.Lock()
	h.reasons[reason]++
	h.mu.Unlock()
}

func (h *harness) fail(reason string) {
	h.failed.Add(1)
	h.note(reason)
}

// sample records a latency of ns for an operation that started at at.
func (h *harness) sample(dst *[]stamped, at, ns int64) {
	h.mu.Lock()
	*dst = append(*dst, stamped{at: at, ms: float64(ns) / 1e6})
	h.mu.Unlock()
}

func (h *harness) addStats(s qtp.Stats) {
	h.mu.Lock()
	q := &h.qstats
	q.DataFramesSent += s.DataFramesSent
	q.DataBytesSent += s.DataBytesSent
	q.RetransFrames += s.RetransFrames
	q.RetransBytes += s.RetransBytes
	q.FeedbackFrames += s.FeedbackFrames
	q.SACKFrames += s.SACKFrames
	q.FramesReceived += s.FramesReceived
	q.DeliveredBytes += s.DeliveredBytes
	q.DecodeErrors += s.DecodeErrors
	h.mu.Unlock()
}

// start launches the workload's server and load goroutines.
func (h *harness) start() {
	h.srvWG.Add(1)
	go h.acceptLoop()
	switch h.workload {
	case "bulk", "upload":
		dial := func(addr string) (*qtpnet.Conn, error) { return qtpnet.Dial(addr, bulkProfile(), dialTimeout) }
		writeSize, window := bulkWrite, 0
		if h.workload == "upload" {
			writeSize, window = uploadWrite, uploadWindow
		}
		for s := 0; s < bulkSlots; s++ {
			h.wg.Add(1)
			go h.streamLoop(uint64(s), dial, func(r *rng) int {
				return bulkMinBytes + int(r.next()%bulkSpanBytes)
			}, writeSize, window)
		}
	case "churn":
		dial := func(addr string) (*qtpnet.Conn, error) { return qtpnet.Dial(addr, churnProfile(), dialTimeout) }
		for s := 0; s < churnDialers; s++ {
			h.wg.Add(1)
			go h.streamLoop(uint64(s), dial, func(*rng) int { return churnBytes }, churnBytes, 0)
		}
	case "msg":
		h.startMsg()
	}
}

// finish stops the load, lets in-flight operations complete, and waits
// for every goroutine the pass started.
func (h *harness) finish() {
	h.stop.Store(true)
	h.wg.Wait()
	if h.workload == "msg" {
		if lost := h.msgsSent.Load() - h.delivered.Load(); lost > 0 {
			h.failed.Add(lost)
			h.note("message missing or corrupt")
		}
	}
	h.srv.Close()
	h.srvWG.Wait()
}

func (h *harness) acceptLoop() {
	defer h.srvWG.Done()
	for {
		id, t0 := h.tr.begin()
		c, err := h.srv.Accept()
		if err != nil {
			return
		}
		h.tr.end(id, 0, uint64(c.ID()), "Accept", t0)
		h.srvWG.Add(1)
		go func() {
			defer h.srvWG.Done()
			if h.workload == "msg" {
				h.serveMsgConn(c)
			} else {
				h.serveStream(c)
			}
		}()
	}
}

// drained reports whether a reader whose Read just came back empty has
// seen the end of its connection.
func drained(c *qtpnet.Conn) bool {
	if c.Finished() {
		return true
	}
	select {
	case <-c.Done():
		return true
	default:
		return false
	}
}

// serveStream reads and verifies one bulk, upload or churn connection.
func (h *harness) serveStream(c *qtpnet.Conn) {
	defer c.Close()
	var v streamVerifier
	var sess *session
	op := uint64(c.ID())
	for {
		id, t0 := h.tr.begin()
		p, ok := c.Read(readTimeout)
		if !ok {
			if drained(c) {
				break
			}
			continue
		}
		h.tr.end(id, 0, op, "Read", t0)
		t := h.now()
		if v.got == 0 && len(p) >= 8 {
			sess = h.claim(&v, p)
		}
		h.verifiedBytes.Add(int64(v.write(p)))
		c.Release(p)
		if sess != nil {
			for v.err == nil && sess.next < len(sess.writeEnds) && sess.writeEnds[sess.next] <= v.got {
				if st := sess.writeStart[sess.next].Load(); h.inWindow(st) {
					h.sample(&h.msgLat, st, t-st)
				}
				sess.next++
				h.delivered.Add(1)
			}
			sess.read.Store(v.got)
			select {
			case sess.progress <- struct{}{}:
			default:
			}
		}
	}
	h.addStats(c.Stats())
	if v.err != nil {
		h.corrupt.Add(1)
	}
	if sess != nil {
		sess.verdict <- v.finish()
	}
}

// claim finds the session a connection's first delivered chunk belongs
// to: by the key in its header or, when the opening chunks were lost,
// by placing the chunk in each open session's pattern.
func (h *harness) claim(v *streamVerifier, first []byte) *session {
	h.mu.Lock()
	defer h.mu.Unlock()
	if s := h.sessions[binary.LittleEndian.Uint64(first)]; s != nil {
		return s
	}
	for _, s := range h.sessions {
		if v.resume(s.key, s.total, first) {
			return s
		}
	}
	return nil
}

// streamLoop is one closed-loop client: repeated connection lifecycles,
// each carrying one seeded byte stream of size(r) bytes in writes of at
// most writeSize, until the pass stops. A non-zero window caps the bytes
// written that the server has not yet read.
func (h *harness) streamLoop(slot uint64, dial func(addr string) (*qtpnet.Conn, error), size func(*rng) int, writeSize, window int) {
	defer h.wg.Done()
	r := newRNG(h.seed, slot)
	addr := h.srv.Addr().String()
	var buf []byte
	for !h.stop.Load() {
		key := r.next()
		total := size(r)
		if cap(buf) < total {
			buf = make([]byte, total)
		}
		buf = buf[:total]
		fillStream(buf, key)
		h.lifecycle(dial, addr, key, buf, writeSize, window)
	}
}

// lifecycle runs one Dial → Write… → CloseSend → Done → Close and
// waits for the server's verdict on the bytes. With a non-zero window,
// each Write first waits until the server has read all but window bytes
// of what the stream will then hold.
func (h *harness) lifecycle(dial func(addr string) (*qtpnet.Conn, error), addr string, key uint64, payload []byte, writeSize, window int) {
	h.attempted.Add(1)
	sess := &session{key: key, total: uint64(len(payload)),
		progress: make(chan struct{}, 1), verdict: make(chan error, 1)}
	for off := writeSize; ; off += writeSize {
		if off >= len(payload) {
			sess.writeEnds = append(sess.writeEnds, uint64(len(payload)))
			break
		}
		sess.writeEnds = append(sess.writeEnds, uint64(off))
	}
	sess.writeStart = make([]atomic.Int64, len(sess.writeEnds))
	h.mu.Lock()
	h.sessions[key] = sess
	h.mu.Unlock()
	defer func() {
		h.mu.Lock()
		delete(h.sessions, key)
		h.mu.Unlock()
	}()

	root, rootStart := h.tr.begin()
	defer func() { h.tr.end(root, 0, key, "lifecycle", rootStart) }()

	t0 := h.now()
	c, err := dial(addr)
	t1 := h.now()
	h.tr.record(root, key, "Dial", t0, t1)
	if err != nil {
		h.fail("dial: " + err.Error())
		return
	}
	if h.inWindow(t0) {
		h.sample(&h.dialLat, t0, t1-t0)
	}
	defer c.Close()
	off := 0
	for i, end := range sess.writeEnds {
		if window > 0 && !h.awaitRead(c, sess, end-min(end, uint64(window))) {
			return
		}
		w0 := h.now()
		sess.writeStart[i].Store(w0)
		_, err := c.Write(payload[off:end])
		h.tr.record(root, key, "Write", w0, h.now())
		if err != nil {
			h.fail("write: " + err.Error())
			return
		}
		off = int(end)
	}
	c0 := h.now()
	c.CloseSend()
	select {
	case <-c.Done():
	case <-time.After(closeTimeout):
		h.fail("close never completed")
		return
	}
	h.tr.record(root, key, "CloseSend-Done", c0, h.now())
	h.addStats(c.Stats())
	h.lifecycles.Add(1)
	select {
	case err := <-sess.verdict:
		if err != nil {
			h.fail("verify: " + errorClass(err))
			return
		}
	case <-time.After(closeTimeout):
		h.fail("server never read the stream")
	}
}

// awaitRead blocks until the server has read the session's stream up to
// offset, and counts a failure if it never does.
func (h *harness) awaitRead(c *qtpnet.Conn, sess *session, offset uint64) bool {
	deadline := time.After(closeTimeout)
	for sess.read.Load() < offset {
		select {
		case <-sess.progress:
		case <-c.Done():
			h.fail("connection closed before the server read the stream")
			return false
		case <-deadline:
			h.fail("server never read the stream")
			return false
		}
	}
	return true
}

func errorClass(err error) string {
	for _, e := range []error{errCorrupt, errOverrun, errMissing} {
		if errors.Is(err, e) {
			return e.Error()
		}
	}
	return err.Error()
}

// msgConn is one message connection with its streams and the number of
// messages written to it.
type msgConn struct {
	c       *qtpnet.Conn
	streams []*qtpnet.Stream
	sent    int
	limit   int
	op      uint64
	root    uint64
	start   int64
}

// msgSlot holds the connection a slot currently writes to and the
// pre-dialed replacement that takes over once it reaches its limit, so
// rotation never makes a due message wait for a handshake.
type msgSlot struct {
	cur  *msgConn
	next chan *msgConn
}

func (h *harness) dialMsg(addr string, r *rng) *msgConn {
	h.attempted.Add(1)
	op := r.next()
	root, rootStart := h.tr.begin()
	t0 := h.now()
	c, err := qtpnet.Dial(addr, msgProfile(), dialTimeout)
	t1 := h.now()
	h.tr.record(root, op, "Dial", t0, t1)
	if err != nil {
		h.fail("dial: " + err.Error())
		return nil
	}
	if h.inWindow(t0) {
		h.sample(&h.dialLat, t0, t1-t0)
	}
	mc := &msgConn{c: c, op: op, root: root, start: rootStart,
		limit: msgRotateMin + int(r.next()%msgRotateSpan)}
	for i := 0; i < msgStreams; i++ {
		s, err := c.OpenStream(qtpnet.StreamReliableOrdered, 0)
		if err != nil {
			h.fail("open stream: " + err.Error())
			c.Close()
			return nil
		}
		mc.streams = append(mc.streams, s)
	}
	return mc
}

// retire closes a message connection's streams and waits for teardown.
func (h *harness) retire(mc *msgConn) {
	defer mc.c.Close()
	c0 := h.now()
	for _, s := range mc.streams {
		s.CloseSend()
	}
	mc.c.CloseSend()
	select {
	case <-mc.c.Done():
	case <-time.After(closeTimeout):
		h.fail("close never completed")
		return
	}
	h.tr.record(mc.root, mc.op, "CloseSend-Done", c0, h.now())
	h.tr.end(mc.root, 0, mc.op, "lifecycle", mc.start)
	h.addStats(mc.c.Stats())
	h.lifecycles.Add(1)
}

// startMsg runs the open-loop generator: one goroutine draws Poisson
// arrivals at msgRate and spreads them over msgSlots connections ×
// msgStreams streams; a dialer per slot keeps a replacement ready.
func (h *harness) startMsg() {
	addr := h.srv.Addr().String()
	slots := make([]*msgSlot, msgSlots)
	var retireWG sync.WaitGroup
	stopDial := make(chan struct{})
	var dialWG sync.WaitGroup
	for i := range slots {
		r := newRNG(h.seed, 1000+uint64(i))
		slots[i] = &msgSlot{next: make(chan *msgConn)}
		slots[i].cur = h.dialMsg(addr, r)
		dialWG.Add(1)
		go func(sl *msgSlot) {
			defer dialWG.Done()
			for {
				mc := h.dialMsg(addr, r)
				if mc == nil {
					if h.stop.Load() {
						return
					}
					continue
				}
				select {
				case sl.next <- mc:
				case <-stopDial:
					retireWG.Add(1)
					go func() { defer retireWG.Done(); h.retire(mc) }()
					return
				}
			}
		}(slots[i])
	}

	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		// The generator sleeps in nanosleep on a thread of its own: the
		// runtime's timers wake a parked goroutine up to a millisecond late,
		// and that slack would count as message latency.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		r := newRNG(h.seed, 999)
		var buf [msgLen]byte
		due := h.now()
		for id := uint64(0); !h.stop.Load(); id++ {
			due += int64(-math.Log(1-r.float()) / msgRate * 1e9)
			slot := slots[r.next()%msgSlots]
			stream := int(r.next() % msgStreams)
			if d := due - h.now(); d > 0 {
				ts := syscall.NsecToTimespec(d)
				_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep just runs early, and lateness is measured
			}
			if t := h.now(); h.inWindow(due) {
				h.sample(&h.late, due, t-due)
			}
			if old := slot.cur; old == nil || old.sent >= old.limit {
				select {
				case slot.cur = <-slot.next:
					if old != nil {
						retireWG.Add(1)
						go func() { defer retireWG.Done(); h.retire(old) }()
					}
				default:
				}
			}
			mc := slot.cur
			h.attempted.Add(1)
			h.msgsSent.Add(1)
			if mc == nil {
				continue // counted missing: no connection to carry it
			}
			makeMsg(buf[:], h.seed, id, due)
			w0 := h.now()
			_, err := mc.streams[stream].Write(buf[:])
			h.tr.record(mc.root, mc.op, "Write", w0, h.now())
			if err != nil {
				h.note("write: " + err.Error())
			}
			mc.sent++
		}
		close(stopDial)
		dialWG.Wait()
		for _, sl := range slots {
			if sl.cur != nil {
				retireWG.Add(1)
				go func(mc *msgConn) { defer retireWG.Done(); h.retire(mc) }(sl.cur)
			}
		}
		retireWG.Wait()
	}()
}

// serveMsgConn accepts a message connection's streams and reads each on
// its own goroutine.
func (h *harness) serveMsgConn(c *qtpnet.Conn) {
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < msgStreams; i++ {
		id, t0 := h.tr.begin()
		s, ok := c.AcceptStream(closeTimeout)
		if !ok {
			break
		}
		h.tr.end(id, 0, uint64(c.ID()), "AcceptStream", t0)
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.serveMsgStream(s)
		}()
	}
	wg.Wait()
	h.addStats(c.Stats())
}

func (h *harness) serveMsgStream(s *qtpnet.Stream) {
	var rf reframer
	var t int64
	last := int64(-1)
	op := uint64(s.Conn().ID())
	handle := func(m []byte) {
		id, due, ok := checkMsg(m, h.seed)
		if !ok || int64(id) <= last {
			h.corrupt.Add(1)
			h.note("message corrupt or out of order")
			return
		}
		last = int64(id)
		h.delivered.Add(1)
		h.verifiedBytes.Add(msgLen)
		if h.inWindow(due) {
			h.sample(&h.msgLat, due, t-due)
		}
	}
	for {
		id, t0 := h.tr.begin()
		p, ok := s.Read(readTimeout)
		if !ok {
			if drained(s.Conn()) {
				break
			}
			continue
		}
		h.tr.end(id, 0, op, "Read", t0)
		t = h.now()
		rf.feed(p, handle)
		s.Release(p)
	}
	if rf.n != 0 {
		h.note("message truncated at stream end")
	}
}

// sortedReasons lists failure reasons for the report.
func (h *harness) sortedReasons() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []string
	for k, v := range h.reasons {
		out = append(out, fmt.Sprintf("%s ×%d", k, v))
	}
	sort.Strings(out)
	return out
}
