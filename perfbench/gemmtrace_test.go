package main

import (
	"slices"
	"testing"

	"tender/internal/engine"
	"tender/internal/model"
	"tender/internal/serve"
	"tender/internal/tensor"
	"tender/internal/workload"
)

// bareEngine forwards MatMul only, the wrapper mistake the GEMM timer must
// not make: the scheduler then decodes per request and disables the
// prefix cache.
type bareEngine struct{ inner model.Engine }

func (b bareEngine) MatMul(site model.Site, x, w *tensor.Matrix) *tensor.Matrix {
	return b.inner.MatMul(site, x, w)
}

// served is what one sequential replay of a trace produced.
type served struct {
	tokens [][]int
	snap   serve.Snapshot
}

func serveAll(t *testing.T, m *model.Model, spec string, eng model.Engine, reqs []serve.Request) served {
	t.Helper()
	srv, err := newServer(m, spec, eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	// One client: admissions, prefix donations and lookups happen in one
	// order, so the counts are deterministic.
	p := runClosed(srv, reqs, 1, 0, 0)
	var out served
	for i, r := range p.recs {
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
		out.tokens = append(out.tokens, r.res.Tokens)
	}
	if _, _, _, _, ok := settledPages(srv); !ok {
		t.Fatal("KV pages do not balance after the replay")
	}
	out.snap = srv.Metrics().Snapshot()
	return out
}

// prefixTrace is a donor request holding one page-aligned prefix, then
// requests extending it, so the prefix cache hits today.
func prefixTrace(vocab int) []serve.Request {
	prefix := workload.TokenStream(workload.Wiki, 11, pageRows, vocab)
	reqs := []serve.Request{{Prompt: prefix, MaxNewTokens: 6, Temperature: temperature, Seed: 1}}
	for i := 0; i < 4; i++ {
		tail := workload.TokenStream(workload.PTB, uint64(20+i), pageRows+4, vocab)
		reqs = append(reqs, serve.Request{
			Prompt:       append(slices.Clone(prefix), tail...),
			MaxNewTokens: 5 + i,
			Temperature:  temperature,
			Seed:         uint64(2 + i),
		})
	}
	return reqs
}

// TestGEMMTimerKeepsTheProgram serves the same trace with and without the
// timer, for the benchmark's engine and for the exact engine, which unlike
// it has the allocation-free MatMulInto path.
func TestGEMMTimerKeepsTheProgram(t *testing.T) {
	m := model.New(model.TinyConfig())
	engines, err := engine.BuildEngines(m, []string{engineSpec, "fp32"}, engine.BuildOptions{Serving: true})
	if err != nil {
		t.Fatal(err)
	}
	for spec, eng := range engines {
		t.Run(spec, func(t *testing.T) { testTimerKeepsProgram(t, m, spec, eng) })
	}
}

func testTimerKeepsProgram(t *testing.T, m *model.Model, spec string, eng model.Engine) {
	reqs := prefixTrace(m.Cfg.Vocab)

	plain := serveAll(t, m, spec, eng, reqs)
	if plain.snap.PrefixHits == 0 || plain.snap.FusedDecodeTokens == 0 {
		t.Fatalf("trace exercises neither fused decode nor the prefix cache: %d hits, %d fused tokens",
			plain.snap.PrefixHits, plain.snap.FusedDecodeTokens)
	}

	wrapped, timer, err := newGEMMTimer(eng, maxBatch)
	if err != nil {
		t.Fatal(err)
	}
	_, innerInto := eng.(model.EngineInto)
	if _, into := wrapped.(model.EngineInto); into != innerInto {
		t.Errorf("engine offers MatMulInto: %v; timer: %v", innerInto, into)
	}
	timed := serveAll(t, m, spec, wrapped, reqs)
	if !slices.EqualFunc(plain.tokens, timed.tokens, slices.Equal) {
		t.Error("the GEMM timer changed output tokens")
	}
	a, b := plain.snap, timed.snap
	if a.DecodeTokens != b.DecodeTokens || a.FusedDecodeTokens != b.FusedDecodeTokens {
		t.Errorf("fused decode: %d of %d tokens unwrapped, %d of %d under the timer",
			a.FusedDecodeTokens, a.DecodeTokens, b.FusedDecodeTokens, b.DecodeTokens)
	}
	if a.PrefixHits != b.PrefixHits || a.PrefixMisses != b.PrefixMisses || a.PrefillTokensSkipped != b.PrefillTokensSkipped {
		t.Errorf("prefix cache: %d hits, %d misses, %d skipped unwrapped; %d, %d, %d under the timer",
			a.PrefixHits, a.PrefixMisses, a.PrefillTokensSkipped, b.PrefixHits, b.PrefixMisses, b.PrefillTokensSkipped)
	}

	rep := timer.report()
	for _, k := range weightKinds {
		if s := rep.kinds[k]; s.calls == 0 || s.time <= 0 {
			t.Errorf("site %s: %d calls, %v timed", siteName(k), s.calls, s.time)
		}
	}
	if rep.decode.calls == 0 || rep.prefill.calls == 0 {
		t.Errorf("phase split: %d decode calls, %d prefill calls", rep.decode.calls, rep.prefill.calls)
	}
	if rep.decode.time+rep.prefill.time != rep.total() {
		t.Errorf("phase times %v + %v do not sum to the site total %v", rep.decode.time, rep.prefill.time, rep.total())
	}

	// The control: a wrapper that forwards only MatMul keeps the tokens but
	// loses fused decode and the prefix cache, which this test would catch.
	bare := serveAll(t, m, spec, bareEngine{eng}, reqs)
	if !slices.EqualFunc(plain.tokens, bare.tokens, slices.Equal) {
		t.Error("a MatMul-only wrapper changed output tokens")
	}
	if bare.snap.FusedDecodeTokens != 0 || bare.snap.PrefixHits != 0 {
		t.Errorf("a MatMul-only wrapper still fused %d tokens and hit %d prefixes",
			bare.snap.FusedDecodeTokens, bare.snap.PrefixHits)
	}
	if _, _, err := newGEMMTimer(bareEngine{eng}, maxBatch); err == nil {
		t.Error("newGEMMTimer accepted an engine without the serving interfaces")
	}
}
