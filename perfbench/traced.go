package main

import (
	"fmt"
	"slices"
	"time"

	"tender/internal/obs"
	"tender/internal/serve"
)

// traceEvents is the tracer ring size; a run that overflows it is refused
// rather than reported from a partial trace.
const traceEvents = 1 << 18

// runTraced measures the per-layer metrics. Phase A runs the workload
// untraced on the set-up server. Phase B replays exactly the requests A
// sent, with the same client count or arrival schedule, on a fresh server
// whose engine is wrapped by the GEMM timer and whose serve tracer is on.
// B must produce A's tokens and fused-decode counts, and the wrapped engine
// must keep the prefix cache, or the trace describes a different program.
func runTraced(cfg runConfig, st stack, times []setupTimes) (result, map[string]any, error) {
	mem0 := readMem()
	pa, err := load(cfg, st.srv)
	if err != nil {
		return result{}, nil, err
	}
	mem := readMem().sub(mem0)
	chkA := checkPhase(st, pa)
	snapA := st.srv.Metrics().Snapshot()

	timed, timer, err := newGEMMTimer(st.eng, maxBatch)
	if err != nil {
		return result{}, nil, err
	}
	if st.m.PrefixShareable(timed) != st.m.PrefixShareable(st.eng) {
		return result{}, nil, fmt.Errorf("the GEMM timer changes prefix-cache eligibility")
	}
	tracer := obs.NewTracer(traceEvents)
	srvB, err := newServer(st.m, st.spec, timed, tracer)
	if err != nil {
		return result{}, nil, err
	}
	defer srvB.Stop()
	reqs := make([]serve.Request, len(pa.recs))
	for i, r := range pa.recs {
		reqs[i] = r.req
	}
	var pb phase
	if cfg.shape.openLoop() {
		due := make([]time.Duration, len(pa.recs))
		for i, r := range pa.recs {
			due[i] = r.due.Sub(pa.start)
		}
		pb = runOpen(srvB, reqs, due, cfg.window)
	} else {
		pb = runClosed(srvB, reqs, cfg.shape.clients, 0, 0)
	}
	gr := timer.report()
	chkB := checkPhase(stack{m: st.m, spec: st.spec, eng: st.eng, srv: srvB}, pb)
	snapB := srvB.Metrics().Snapshot()
	if d := tracer.Dropped(); d > 0 {
		return result{}, nil, fmt.Errorf("trace ring dropped %d events; raise traceEvents", d)
	}

	chk := chkA
	if chk.ok() {
		chk = chkB
	}
	if chk.ok() {
		chk.Problem = sameProgram(pa, pb, snapA, snapB)
	}
	values, detail, err := layers(cfg.shape, st, times, pa, pb, snapB, tracer.Events(), gr, mem)
	if err != nil {
		return result{}, nil, err
	}
	detail["check_untraced"] = chkA
	detail["check_traced"] = chkB
	detail["check"] = chk
	return finish(append(pa.recs, pb.recs...), chk, values, layerMetrics, detail)
}

// sameProgram reports how the traced replay differs from the untraced
// phase, or "" when it produced the same tokens for every request, the
// same fused-decode and decode counts, and the same prefix lookups.
func sameProgram(pa, pb phase, a, b serve.Snapshot) string {
	for i := range pa.recs {
		if !slices.Equal(pa.recs[i].res.Tokens, pb.recs[i].res.Tokens) {
			return fmt.Sprintf("traced replay changed the tokens of request %d", i)
		}
	}
	switch {
	case a.DecodeTokens != b.DecodeTokens || a.FusedDecodeTokens != b.FusedDecodeTokens:
		return fmt.Sprintf("traced replay decoded %d tokens, %d fused; untraced %d, %d fused",
			b.DecodeTokens, b.FusedDecodeTokens, a.DecodeTokens, a.FusedDecodeTokens)
	case a.PrefixHits+a.PrefixMisses != b.PrefixHits+b.PrefixMisses:
		return fmt.Sprintf("traced replay made %d prefix lookups, untraced %d",
			b.PrefixHits+b.PrefixMisses, a.PrefixHits+a.PrefixMisses)
	}
	return ""
}

// lifecycle is one request's traced transitions.
type lifecycle struct{ enqueue, admit, prefillEnd time.Duration }

// layers computes the per-layer metrics: set-up stages, scheduler and model
// figures from the traced phase, GEMM figures from the timer, runtime and
// generator figures from the untraced phase.
func layers(sh shape, st stack, times []setupTimes, pa, pb phase, snap serve.Snapshot, events []obs.Event, gr gemmReport, mem memStats) (map[string]float64, map[string]any, error) {
	v := make(map[string]float64)
	var modelNew, buildEng, start []float64
	for _, t := range times {
		modelNew = append(modelNew, t.modelNew.Seconds())
		buildEng = append(buildEng, t.buildEngines.Seconds())
		start = append(start, t.serverStart.Seconds())
	}
	v["setup.model_new_s"] = median(modelNew)
	v["setup.build_engines_s"] = median(buildEng)
	v["setup.server_start_s"] = median(start)

	// Scheduler stages from the lifecycle trace: queue wait is enqueue →
	// admission, the prefill stage admission → prompt fully prefilled (the
	// first token is emitted in that iteration).
	life := make(map[uint64]*lifecycle)
	var busy time.Duration
	for _, e := range events {
		if e.Kind == obs.KindIteration {
			busy += time.Duration(e.B)
			continue
		}
		l := life[e.Req]
		if l == nil {
			l = &lifecycle{enqueue: -1, admit: -1, prefillEnd: -1}
			life[e.Req] = l
		}
		switch {
		case e.Kind == obs.KindEnqueue && l.enqueue < 0:
			l.enqueue = e.TS
		case e.Kind == obs.KindAdmit && l.admit < 0:
			l.admit = e.TS
		case e.Kind == obs.KindPrefillEnd && l.prefillEnd < 0:
			l.prefillEnd = e.TS
		}
	}
	var waits, prefills []float64
	for _, l := range life {
		if l.enqueue >= 0 && l.admit >= 0 {
			waits = append(waits, ms(l.admit-l.enqueue))
		}
		if l.admit >= 0 && l.prefillEnd >= 0 {
			prefills = append(prefills, ms(l.prefillEnd-l.admit))
		}
	}
	var err error
	v["serve.queue_wait_p50_ms"] = median(waits)
	if v["serve.queue_wait_tail_ms"], _, err = tail(waits, sh.tailQ); err != nil {
		return nil, nil, fmt.Errorf("queue wait tail: %w", err)
	}
	v["serve.prefill_stage_p50_ms"] = median(prefills)
	v["serve.mean_batch"] = snap.MeanBatchSize
	v["serve.iterations"] = float64(snap.Iterations)
	v["serve.fused_token_share"] = float64(snap.FusedDecodeTokens) / float64(snap.DecodeTokens)
	v["serve.preemptions"] = float64(snap.Preemptions)
	v["serve.rejected"] = float64(snap.Rejected + snap.BrownoutShed + snap.InvalidRejected + snap.DrainRejected)

	fs := snap.FusedStep[st.spec]
	v["model.fused_steps"] = float64(fs.Count)
	v["model.fused_step_mean_ms"] = fs.SumMs / float64(max(fs.Count, 1))
	v["model.iter_busy_s"] = busy.Seconds()
	gemm := gr.total()
	v["model.non_gemm_share"] = 1 - gemm.Seconds()/busy.Seconds()

	for _, k := range weightKinds {
		s := gr.kinds[k]
		site := "gemm." + siteName(k)
		v[site+".ms"] = ms(s.time)
		v[site+".calls"] = float64(s.calls)
		v[site+".rows_mean"] = float64(s.rows) / float64(max(s.calls, 1))
	}
	v["gemm.decode.ms"] = ms(gr.decode.time)
	v["gemm.prefill.ms"] = ms(gr.prefill.time)
	v["gemm.decode.gops_s"] = gops(gr.decode)
	v["gemm.prefill.gops_s"] = gops(gr.prefill)
	v["gemm.bytes_mb"] = (gr.decode.bytes + gr.prefill.bytes) / 1e6

	var promptTokens int
	for _, r := range pb.recs {
		promptTokens += len(r.req.Prompt)
	}
	lookups := snap.PrefixHits + snap.PrefixMisses
	v["prefix.hit_share"] = float64(snap.PrefixHits) / float64(max(lookups, 1))
	v["prefix.skipped_token_share"] = float64(snap.PrefillTokensSkipped) / float64(promptTokens)
	v["prefix.evictions"] = float64(snap.PrefixEvictions)
	v["prefix.cached_rows"] = float64(snap.PrefixCachedRows)

	// A KV position holds one key and one value row in every layer.
	rowBytes := float64(2 * st.m.Cfg.Layers * snap.KVBytesPerRow)
	v["kv.peak_rows"] = float64(snap.KVPeakOccupancyRows)
	v["kv.peak_mb"] = float64(snap.KVPeakOccupancyRows) * rowBytes / 1e6
	v["kv.page_allocs"] = float64(snap.KVPageAllocs)
	v["kv.page_frees"] = float64(snap.KVPageFrees)

	var tokA int
	for _, r := range pa.recs {
		tokA += len(r.res.Tokens)
	}
	v["go.gc_cycles"] = float64(mem.gcCycles)
	v["go.gc_pause_ms"] = float64(mem.pauseNs) / 1e6
	v["go.alloc_bytes_per_token"] = float64(mem.allocBytes) / float64(tokA)

	var late []float64
	for _, r := range pa.measured() {
		late = append(late, ms(r.late()))
	}
	if v["loadgen.late_tail_ms"], _, err = tail(late, sh.tailQ); err != nil {
		return nil, nil, fmt.Errorf("lateness tail: %w", err)
	}
	v["loadgen.late_max_ms"] = slices.Max(late)
	v["trace.overhead"] = pb.spanTokS() / pa.spanTokS()

	detail := map[string]any{
		"trace_overhead_base": "output tokens per second of the traced replay over the untraced phase, same requests, first send to last return",
		"reconcile": map[string]any{
			"iter_busy_ms":      ms(busy),
			"gemm_sites_ms":     ms(gemm),
			"gemm_phases_ms":    ms(gr.decode.time + gr.prefill.time),
			"non_gemm_ms":       ms(busy - gemm),
			"fused_step_sum_ms": fs.SumMs,
			"gemm_decode_ms":    ms(gr.decode.time),
		},
		"requests": len(pb.recs),
	}
	if busy <= 0 || gemm > busy+busy/20 {
		return nil, nil, fmt.Errorf("GEMM time %v does not fit in iteration busy time %v", gemm, busy)
	}
	return v, detail, nil
}

// gops is a GEMM group's rate in 10⁹ operations per second.
func gops(s gemmStats) float64 {
	if s.time <= 0 {
		return 0
	}
	return s.flops / s.time.Seconds() / 1e9
}
