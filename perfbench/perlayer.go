package main

import (
	"fmt"
	"time"
)

// perLayer assembles the traced run's per-layer metrics: span and
// counter figures from the two passes, the layer replays at this
// workload's traffic shape, and the reconciliation of layer costs
// against the untraced pass's end-to-end CPU.
func perLayer(workload string, seed uint64, hu *harness, wu window, wt window, tr *tracer) (*result, error) {
	replay := func(name string, f func() error) error {
		id, t0 := tr.begin()
		err := f()
		tr.end(id, 0, 0, "replay."+name, t0)
		return err
	}
	var q *qtpReplay
	var seal, open, hsUS, enc, parse, onSACK, reasm, onAcked, tfrcRecv, deliver, harnessNs float64
	steps := []struct {
		name string
		f    func() error
	}{
		{"qtp", func() error { q = replayQTP(workload, seed); return nil }},
		{"qcrypto.aead", func() (err error) { seal, open, err = replayAEAD(q.frames); return err }},
		{"qcrypto.handshake", func() (err error) { hsUS, err = replayHandshake(); return err }},
		{"packet", func() error { enc, parse = replayCodec(q.frames); return nil }},
		{"sack", func() error { onSACK, reasm = replaySACK(workload, meanFrame(q.frames)); return nil }},
		{"cc", func() error { onAcked, tfrcRecv = replayCC(meanFrame(q.frames)); return nil }},
		{"qtpnet.deliver", func() (err error) { deliver, err = replayDeliver(workload); return err }},
		{"harness", func() error { harnessNs = replayHarness(workload, seed); return nil }},
	}
	for _, s := range steps {
		if err := replay(s.name, s.f); err != nil {
			return nil, fmt.Errorf("replay %s: %w", s.name, err)
		}
	}
	pollNs := float64(q.pollNs) / float64(max(q.polled, 1))
	handleNs := float64(q.handleNs) / float64(max(q.handled, 1))

	// Reconciliation. Every datagram crossing loopback is sealed, polled
	// out of its sender's engine, opened and handled by its receiver, all
	// inside this process; the server endpoint's counters see each one
	// once, in one direction or the other.
	c, tot := wu.counters, wu.total()
	dgrams := float64(c.DgramsIn + c.DgramsOut)
	lines := []struct {
		name string
		ns   float64
	}{
		{"qcrypto seal", seal * dgrams},
		{"qcrypto open", open * dgrams},
		{"qtp poll (incl. packet encode, sack, cc)", pollNs * dgrams},
		{"qtp handle (incl. packet parse, sack, cc)", handleNs * dgrams},
		{"qcrypto handshake", hsUS * 1e3 * float64(tot.lifecycles)},
		{"benchmark input generation + verification", harnessNs * float64(tot.bytes)},
	}
	cpuNs := float64(tot.cpu)
	sum := 0.0
	fmt.Printf("reconciliation (%s, untraced window, %.0f datagrams):\n", workload, dgrams)
	for _, l := range lines {
		sum += l.ns
		fmt.Printf("  %-44s %10.1f ms  %5.1f%%\n", l.name, l.ns/1e6, 100*l.ns/cpuNs)
	}
	residual := cpuNs - sum
	fmt.Printf("  %-44s %10.1f ms  %5.1f%%\n", "sum of layers", sum/1e6, 100*sum/cpuNs)
	fmt.Printf("  %-44s %10.1f ms\n", "end-to-end process CPU", cpuNs/1e6)
	fmt.Printf("  %-44s %10.1f ms  %5.1f%%  (syscalls, scheduling, timers, demux, GC)\n", "residual", residual/1e6, 100*residual/cpuNs)

	ops := float64(max(tot.msgs, 1))
	writeN, writeT := tr.spanStats("Write")
	closeN, closeT := tr.spanStats("CloseSend-Done")
	qs := hu.qstats
	late := 0.0
	if wu.late.N > 0 {
		late = wu.late.Tail
	}
	m := map[string]metric{
		"qcrypto.seal_ns_per_dgram":     {seal, "ns"},
		"qcrypto.open_ns_per_dgram":     {open, "ns"},
		"qcrypto.handshake_us":          {hsUS, "us"},
		"packet.encode_ns_per_frame":    {enc, "ns"},
		"packet.parse_ns_per_frame":     {parse, "ns"},
		"qtp.poll_ns_per_frame":         {pollNs, "ns"},
		"qtp.handle_ns_per_frame":       {handleNs, "ns"},
		"qtp.allocs_per_frame":          {float64(q.allocs) / float64(max(q.polled+q.handled, 1)), "count"},
		"qtp.retrans_ratio":             {float64(qs.RetransFrames) / float64(max(qs.DataFramesSent, 1)), "ratio"},
		"qtp.ack_frames_per_data_frame": {float64(qs.FeedbackFrames+qs.SACKFrames) / float64(max(qs.DataFramesSent, 1)), "ratio"},
		"qtp.decode_errors":             {float64(qs.DecodeErrors), "count"},
		"sack.onconnsack_ns":            {onSACK, "ns"},
		"sack.reassembler_ns_per_seg":   {reasm, "ns"},
		"bbr.on_acked_ns":               {onAcked, "ns"},
		"tfrc.receiver_ns_per_pkt":      {tfrcRecv, "ns"},
		"qtpnet.dgram_per_rxcall":       {float64(c.DgramsIn) / float64(max(c.RxCalls, 1)), "count"},
		"qtpnet.dgram_per_txcall":       {float64(c.DgramsOut) / float64(max(c.TxCalls, 1)), "count"},
		"qtpnet.wakeups_per_op":         {float64(c.Wakeups) / ops, "count"},
		"qtpnet.dgrams_per_op":          {dgrams / ops, "count"},
		"qtpnet.deliver_ns_per_dgram":   {deliver, "ns"},
		"qtpnet.write_wait_ms_per_op":   {float64(writeT) / 1e6 / float64(max(writeN, 1)), "ms"},
		"qtpnet.close_wait_ms":          {float64(closeT) / 1e6 / float64(max(closeN, 1)), "ms"},
		"qtpnet.recv_drops":             {float64(c.RecvDrops), "count"},
		"qtpnet.send_drops":             {float64(c.SendDrops), "count"},
		"qcrypto.open_fail":             {float64(c.OpenFail), "count"},
		"qtpnet.residual_ns_per_dgram":  {residual / max(dgrams, 1), "ns"},
		"reconcile.layers_pct":          {100 * sum / cpuNs, "%"},
		"loadgen.late_p99_ms":           {late, "ms"},
		"trace.overhead_pct":            {100 * (primaryCPU(workload, wt.total()) - primaryCPU(workload, tot)) / primaryCPU(workload, tot), "%"},
	}
	fmt.Printf("qtp replay: %d frames polled, %d handled, %s\n", q.polled, q.handled, time.Duration(q.pollNs+q.handleNs))
	return resultOf(hu, m), nil
}
