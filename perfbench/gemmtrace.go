package main

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"tender/internal/model"
	"tender/internal/tensor"
)

// weightKinds are the weight-GEMM sites timed per kind, in report order.
var weightKinds = []model.SiteKind{model.KindQ, model.KindK, model.KindV, model.KindOut, model.KindFC1, model.KindFC2}

// siteName is the metric name of a weight site kind.
func siteName(k model.SiteKind) string { return strings.ToLower(k.String()) }

// servingEngine is what the serving stack asks of an engine beyond
// MatMul: the row-independence audit that fused decode and the prefix cache
// run, and the exact-attention report fused decode's direct attention loops
// need. A wrapper that drops either silently changes the program
// (per-request decode, no prefix cache), so the timer requires both.
type servingEngine interface {
	model.RowIndependentEngine
	ExactActAct() bool
}

// gemmStats accumulates one group of timed GEMM calls.
type gemmStats struct {
	calls int64
	rows  int64
	flops float64 // 2·M·K·N
	bytes float64 // operand and result bytes at the Engine interface, as f64
	time  time.Duration
}

func (g *gemmStats) add(o gemmStats) {
	g.calls += o.calls
	g.rows += o.rows
	g.flops += o.flops
	g.bytes += o.bytes
	g.time += o.time
}

// inflight is one timed call in progress.
type inflight struct {
	kind   model.SiteKind
	decode bool
	stats  gemmStats
	used   bool
}

// gemmTimer wraps a serving engine and times every weight-GEMM call by site
// kind and by phase (decode when M ≤ maxBatch rows, prefill otherwise),
// from outside the program. Activation-activation calls pass through
// untimed: they are attention, part of the non-GEMM remainder.
//
// The scheduler runs prefill chunks of different requests concurrently on
// its worker pool, so timed calls can overlap. Wall time is attributed by
// processor sharing: each interval is split evenly between the calls in
// flight during it, so the attributed times sum to the wall time during
// which any GEMM ran and never exceed the scheduler's busy time.
type gemmTimer struct {
	inner    servingEngine
	maxBatch int

	mu      sync.Mutex
	last    time.Time
	slots   []inflight
	running []int
	kinds   map[model.SiteKind]*gemmStats
	decode  gemmStats
	prefill gemmStats
}

// gemmTimerInto is the timer over an engine with the allocation-free
// model.EngineInto path, which it forwards. The timer must offer MatMulInto
// exactly when the engine does: fused decode takes that path whenever it
// exists.
type gemmTimerInto struct{ *gemmTimer }

// newGEMMTimer wraps eng and returns the wrapper to serve with, offering
// the same optional engine interfaces as eng, and the timer to read.
func newGEMMTimer(eng model.Engine, maxBatch int) (model.Engine, *gemmTimer, error) {
	se, ok := eng.(servingEngine)
	if !ok {
		return nil, nil, fmt.Errorf("engine %T lacks RowIndependentMatMul or ExactActAct", eng)
	}
	t := &gemmTimer{inner: se, maxBatch: maxBatch, kinds: make(map[model.SiteKind]*gemmStats)}
	for _, k := range weightKinds {
		t.kinds[k] = &gemmStats{}
	}
	if _, ok := eng.(model.EngineInto); ok {
		return gemmTimerInto{t}, t, nil
	}
	return t, t, nil
}

// MatMul implements model.Engine.
func (t *gemmTimer) MatMul(site model.Site, x, w *tensor.Matrix) *tensor.Matrix {
	if site.Kind.IsActAct() {
		return t.inner.MatMul(site, x, w)
	}
	slot := t.begin(site.Kind, x.Rows, x.Cols, w.Cols)
	out := t.inner.MatMul(site, x, w)
	t.end(slot)
	return out
}

// MatMulInto implements model.EngineInto.
func (t gemmTimerInto) MatMulInto(site model.Site, x, w, out *tensor.Matrix) {
	into := t.inner.(model.EngineInto)
	if site.Kind.IsActAct() {
		into.MatMulInto(site, x, w, out)
		return
	}
	slot := t.begin(site.Kind, x.Rows, x.Cols, w.Cols)
	into.MatMulInto(site, x, w, out)
	t.end(slot)
}

// RowIndependentMatMul implements model.RowIndependentEngine.
func (t *gemmTimer) RowIndependentMatMul(site model.Site) bool {
	return t.inner.RowIndependentMatMul(site)
}

// ExactActAct forwards the inner engine's attention report.
func (t *gemmTimer) ExactActAct() bool { return t.inner.ExactActAct() }

// advance splits the time since the last event among the calls in flight.
// Caller holds mu.
func (t *gemmTimer) advance(now time.Time) {
	if n := len(t.running); n > 0 {
		share := now.Sub(t.last) / time.Duration(n)
		for _, i := range t.running {
			t.slots[i].stats.time += share
		}
	}
	t.last = now
}

func (t *gemmTimer) begin(kind model.SiteKind, m, k, n int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.advance(time.Now())
	slot := -1
	for i := range t.slots {
		if !t.slots[i].used {
			slot = i
			break
		}
	}
	if slot < 0 {
		t.slots = append(t.slots, inflight{})
		slot = len(t.slots) - 1
	}
	t.slots[slot] = inflight{kind: kind, decode: m <= t.maxBatch, used: true, stats: gemmStats{
		calls: 1,
		rows:  int64(m),
		flops: 2 * float64(m) * float64(k) * float64(n),
		bytes: 8 * (float64(m)*float64(k) + float64(k)*float64(n) + float64(m)*float64(n)),
	}}
	t.running = append(t.running, slot)
	return slot
}

func (t *gemmTimer) end(slot int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.advance(time.Now())
	for i, s := range t.running {
		if s == slot {
			t.running = append(t.running[:i], t.running[i+1:]...)
			break
		}
	}
	c := &t.slots[slot]
	t.kinds[c.kind].add(c.stats)
	if c.decode {
		t.decode.add(c.stats)
	} else {
		t.prefill.add(c.stats)
	}
	c.used = false
}

// gemmReport is a snapshot of the timer's totals.
type gemmReport struct {
	kinds           map[model.SiteKind]gemmStats
	decode, prefill gemmStats
}

func (t *gemmTimer) report() gemmReport {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := gemmReport{kinds: make(map[model.SiteKind]gemmStats, len(t.kinds)), decode: t.decode, prefill: t.prefill}
	for k, s := range t.kinds {
		r.kinds[k] = *s
	}
	return r
}

// total is the attributed time of every timed call.
func (r gemmReport) total() time.Duration {
	var d time.Duration
	for _, s := range r.kinds {
		d += s.time
	}
	return d
}
