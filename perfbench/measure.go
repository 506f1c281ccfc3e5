package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"time"

	"tender/internal/model"
	"tender/internal/serve"
	"tender/internal/workload"
)

// runTimed measures the end-to-end metrics with tracing off.
func runTimed(cfg runConfig, st stack, times []setupTimes) (result, map[string]any, error) {
	rss := startRSS()
	p, err := load(cfg, st.srv)
	peak := rss.stop()
	if err != nil {
		return result{}, nil, err
	}
	e2e, detail, err := endToEnd(cfg.shape, p)
	if err != nil {
		return result{}, nil, err
	}
	chk := checkPhase(st, p)
	ppl := model.TeacherPerplexity(st.m, st.eng, heldOut(), 1).PPL

	totals := make([]float64, len(times))
	for i, t := range times {
		totals[i] = t.total().Seconds()
	}
	e2e["setup_s"] = median(totals)
	e2e["output_match"] = chk.match
	e2e["quality_ppl"] = ppl
	e2e["peak_rss_mb"] = peak / 1e6
	detail["check"] = chk
	detail["setup_s_each"] = totals
	return finish(p.recs, chk, e2e, endToEndMetrics, detail)
}

// endToEnd computes the load metrics of one phase.
func endToEnd(sh shape, p phase) (map[string]float64, map[string]any, error) {
	meas := p.measured()
	var ttfts, tpots, late []float64
	var ok, attained int
	for _, r := range meas {
		late = append(late, ms(r.late()))
		if r.err != nil {
			continue
		}
		ok++
		ttft := r.ttft()
		ttfts = append(ttfts, ms(ttft))
		gap, hasGap := tpot(r.res.Latency, r.res.TTFT, len(r.res.Tokens))
		if hasGap {
			tpots = append(tpots, ms(gap))
		}
		if ttft <= sh.ttftSLO && (!hasGap || gap <= sh.tpotSLO) {
			attained++
		}
	}
	if len(meas) == 0 {
		return nil, nil, fmt.Errorf("no request was sent in the %v window", p.window)
	}
	ttftTail, ttftQ, err := tail(ttfts, sh.tailQ)
	if err != nil {
		return nil, nil, fmt.Errorf("ttft tail: %w", err)
	}
	tpotTail, tpotQ, err := tail(tpots, sh.tailQ)
	if err != nil {
		return nil, nil, fmt.Errorf("tpot tail: %w", err)
	}
	lateTail, _, err := tail(late, sh.tailQ)
	if err != nil {
		return nil, nil, fmt.Errorf("lateness tail: %w", err)
	}
	m := map[string]float64{
		"output_tok_s":    p.windowTokS(),
		"ttft_p50_ms":     median(ttfts),
		"ttft_tail_ms":    ttftTail,
		"tpot_p50_ms":     median(tpots),
		"tpot_tail_ms":    tpotTail,
		"slo_attainment":  float64(attained) / float64(len(meas)),
		"completed_share": float64(ok) / float64(len(meas)),
	}
	detail := map[string]any{
		"sent_in_window": len(meas),
		"ttft_samples":   len(ttfts),
		"tpot_samples":   len(tpots),
		"ttft_tail_q":    ttftQ,
		"tpot_tail_q":    tpotQ,
		"slo_ttft_ms":    ms(sh.ttftSLO),
		"slo_tpot_ms":    ms(sh.tpotSLO),
		"late_tail_ms":   lateTail,
		"late_max_ms":    slices.Max(late),
	}
	return m, detail, nil
}

// finish assembles the result line, checking that every declared metric
// and no other was measured.
func finish(recs []record, chk check, values map[string]float64, want []metricDef, detail map[string]any) (result, map[string]any, error) {
	res := result{Correct: chk.ok(), Attempted: len(recs), Metrics: make(map[string]metric, len(want))}
	for _, r := range recs {
		if r.err != nil {
			res.Failed++
		}
	}
	for _, d := range want {
		v, ok := values[d.name]
		if !ok {
			return result{}, nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(values) != len(want) {
		return result{}, nil, fmt.Errorf("measured %d metrics, declared %d", len(values), len(want))
	}
	return res, detail, nil
}

// heldOut is the quality stream: seed-independent, and unlike the Wiki
// calibration streams engine.BuildEngines records, drawn from the PTB
// stand-in corpus.
func heldOut() []int { return workload.TokenStream(workload.PTB, 0x51ed_0ff5, 256, vocab) }

// matchSample are the request indices whose outputs are compared with the
// unbatched reference decode, the same for every seed.
var matchSample = []int{2, 7, 12, 17, 22, 27}

// check is the outcome of a run's correctness checks, made after the
// measurement window.
type check struct {
	Failed     int     `json:"failed"`
	Match      int     `json:"match"`
	Compared   int     `json:"compared"`
	match      float64 // Match/Compared
	PagesInUse int64   `json:"kv_pages_in_use"`
	PageAllocs int64   `json:"kv_page_allocs"`
	PageFrees  int64   `json:"kv_page_frees"`
	CachePages int64   `json:"prefix_cached_pages"`
	Balanced   bool    `json:"kv_balanced"`
	Problem    string  `json:"problem,omitempty"`
}

func (c check) ok() bool { return c.Problem == "" }

// checkPhase checks that no request failed, that the sampled outputs equal
// serve.DecodeUnbatched's, and that once the server is idle every KV page
// it allocated is freed except the pages its prefix cache still holds.
func checkPhase(st stack, p phase) check {
	var c check
	for _, r := range p.recs {
		if r.err != nil {
			c.Failed++
		}
	}
	c.Match, c.Compared = matchOutputs(st, p.recs)
	if c.Compared > 0 {
		c.match = float64(c.Match) / float64(c.Compared)
	}
	c.PagesInUse, c.PageAllocs, c.PageFrees, c.CachePages, c.Balanced = settledPages(st.srv)
	switch {
	case c.Failed > 0:
		c.Problem = fmt.Sprintf("%d requests failed", c.Failed)
	case c.Compared < len(matchSample)/2:
		c.Problem = fmt.Sprintf("only %d requests sent; output_match needs the sample %v", len(p.recs), matchSample)
	case c.Match != c.Compared:
		c.Problem = fmt.Sprintf("%d of %d sampled outputs differ from serve.DecodeUnbatched", c.Compared-c.Match, c.Compared)
	case !c.Balanced:
		c.Problem = fmt.Sprintf("KV pages do not balance: %d allocated, %d freed, %d in use, %d held by the prefix cache",
			c.PageAllocs, c.PageFrees, c.PagesInUse, c.CachePages)
	}
	return c
}

// matchOutputs compares the sampled requests' tokens with the reference
// single-request decode of the same engine.
func matchOutputs(st stack, recs []record) (match, compared int) {
	for _, i := range matchSample {
		if i >= len(recs) || recs[i].err != nil {
			continue
		}
		req := recs[i].req
		spec := workload.RequestSpec{Prompt: req.Prompt, NewTokens: req.MaxNewTokens}
		want := serve.DecodeUnbatched(st.m, st.eng, []workload.RequestSpec{spec}, req.Temperature, req.Seed)[0]
		compared++
		if slices.Equal(want, recs[i].res.Tokens) {
			match++
		}
	}
	return match, compared
}

// settledPages waits for the scheduler to go idle and reads the page
// counters. Balanced means allocations minus frees equal the pages in
// use, and those are exactly the pages the prefix cache holds.
func settledPages(srv *serve.Server) (inUse, allocs, frees, cached int64, balanced bool) {
	deadline := time.Now().Add(3 * time.Second)
	for {
		s := srv.Metrics().Snapshot()
		inUse, allocs, frees, cached = s.KVPagesInUse, s.KVPageAllocs, s.KVPageFrees, s.PrefixSharedPages
		balanced = s.ActiveSessions == 0 && s.QueueDepth == 0 && allocs-frees == inUse && inUse == cached
		if balanced || time.Now().After(deadline) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// rssSampler tracks peak resident memory while a phase runs.
type rssSampler struct {
	quit chan struct{}
	wg   sync.WaitGroup
	peak float64
}

// startRSS collects garbage, returns freed memory to the OS so set-up's
// transient allocations do not count, and samples RSS every 10ms until
// stop.
func startRSS() *rssSampler {
	debug.FreeOSMemory()
	s := &rssSampler{quit: make(chan struct{})}
	s.peak = rssBytes()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
				s.peak = max(s.peak, rssBytes())
			}
		}
	}()
	return s
}

// stop ends sampling and returns the peak in bytes.
func (s *rssSampler) stop() float64 {
	close(s.quit)
	s.wg.Wait()
	return max(s.peak, rssBytes())
}

// rssBytes reads the process's resident set from /proc/self/statm (0 where
// it does not exist).
func rssBytes() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(string(f[1]), 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize())
}

// memStats is the runtime counters one phase moves.
type memStats struct{ gcCycles, pauseNs, allocBytes uint64 }

func readMem() memStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memStats{gcCycles: uint64(m.NumGC), pauseNs: m.PauseTotalNs, allocBytes: m.TotalAlloc}
}

func (a memStats) sub(b memStats) memStats {
	return memStats{a.gcCycles - b.gcCycles, a.pauseNs - b.pauseNs, a.allocBytes - b.allocBytes}
}
