package main

import (
	"fmt"
	"slices"
	"time"

	"tender/internal/serve"
	"tender/internal/tensor"
	"tender/internal/workload"
)

// vocab is the registry models' vocabulary size; prompts are token ids
// below it.
const vocab = 512

// pageRows is the KV page size the server runs with (the serve default).
const pageRows = tensor.DefaultPageRows

// span is an inclusive length range.
type span struct{ lo, hi int }

// shape is one workload: its traffic, its load pattern and the latency
// limits its SLO attainment is scored against. Every workload runs against
// the same server (see newServer), so workloads differ only here.
type shape struct {
	name string
	// Closed loop: clients requests in flight, each client sending its next
	// request when the previous one returns. Open loop: rate requests per
	// second, due on the schedule arrivals draws from the seed.
	clients int
	rate    float64
	prompt  span // unshared prompt tokens (tenant-prefix: the user tail)
	output  span // tokens to decode
	// tenantPrefix, when set, gives each tenant a shared page-aligned system
	// prompt of that length, one tenant per entry, and every prompt starts
	// with one of them.
	tenantPrefix []int
	// Latency limits a request must meet, both, to count as attained.
	ttftSLO, tpotSLO time.Duration
	// tailQ is the percentile *_tail_ms aims for, chosen so a typical run
	// holds at least minBeyond samples above it; tail falls back to a lower
	// one when a run holds fewer.
	tailQ float64
}

// shapes are the benchmark's workloads; BENCHMARK.json states why each was
// chosen and its SLO limits (TestBenchmarkFileMatchesProgram keeps the two
// in step).
var shapes = []shape{
	{
		name: "chat-decode", clients: 8,
		prompt: span{16, 40}, output: span{64, 128},
		ttftSLO: 200 * time.Millisecond, tpotSLO: 35 * time.Millisecond,
		tailQ: 0.90,
	},
	{
		// 0.8 req/s is about half the closed-loop capacity for this shape.
		// A request's prefill and decode (about 1 s) end before the next one
		// arrives, so TPOT is the M=1 decode over a long KV cache. It does not
		// flip with host speed between that and decode behind a neighbour's
		// prefill, as the TPOT tail did at 1 req/s and the median at 1.33.
		// The 24 requests of a 30 s run support p58 (14 of 24) as the tail.
		name: "long-context", rate: 0.8,
		prompt: span{320, 480}, output: span{16, 48},
		ttftSLO: 1500 * time.Millisecond, tpotSLO: 100 * time.Millisecond,
		tailQ: 14.0 / 24,
	},
	{
		name: "tenant-prefix", clients: 8,
		prompt: span{24, 64}, output: span{16, 32},
		tenantPrefix: []int{256, 272, 304, 320},
		ttftSLO:      3000 * time.Millisecond, tpotSLO: 150 * time.Millisecond,
		// 60–85 requests complete in a 30 s window, depending on host speed.
		tailQ: 0.80,
	},
}

func shapeByName(name string) (shape, error) {
	for _, s := range shapes {
		if s.name == name {
			return s, nil
		}
	}
	names := make([]string, len(shapes))
	for i, s := range shapes {
		names[i] = s.name
	}
	return shape{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func (s shape) openLoop() bool { return s.rate > 0 }

// block is the stratification block: every consecutive block of requests
// draws its prompt and output lengths from the same evenly spaced set, in a
// seeded order, so the work in any run is nearly seed-independent while
// the token content and the order still vary with the seed.
const block = 8

// strata returns block lengths evenly spaced over r.
func strata(r span) []int {
	out := make([]int, block)
	width := r.hi - r.lo + 1
	for j := range out {
		out[j] = r.lo + (2*j+1)*width/(2*block)
	}
	return out
}

// requests generates the first n requests of the workload for seed. Request
// i is the same for every n, so a longer run extends a shorter one.
func (s shape) requests(seed uint64, n int) []serve.Request {
	rng := tensor.NewRNG(seed*0x9e3779b97f4a7c15 + 0x7e4d)
	var prefixes [][]int
	if len(s.tenantPrefix) > 0 {
		order := rng.Perm(len(s.tenantPrefix))
		prefixes = make([][]int, len(s.tenantPrefix))
		for t := range prefixes {
			prefixes[t] = workload.TokenStream(workload.Wiki, seed*7907+uint64(t)*104729+17, s.tenantPrefix[order[t]], vocab)
		}
	}
	promptStrata, outputStrata := strata(s.prompt), strata(s.output)
	out := make([]serve.Request, 0, n)
	for b := 0; len(out) < n; b++ {
		pp, op := rng.Perm(block), rng.Perm(block)
		var tenantOrder []int
		if len(prefixes) > 0 {
			tenantOrder = rng.Perm(len(prefixes))
		}
		for j := 0; j < block && len(out) < n; j++ {
			i := len(out)
			stream := workload.Wiki
			if i%2 == 1 {
				stream = workload.PTB
			}
			tokens := workload.TokenStream(stream, seed*1000003+uint64(i)*7919+5, promptStrata[pp[j]], vocab)
			prompt := tokens
			if len(prefixes) > 0 {
				prompt = append(slices.Clone(prefixes[tenantOrder[j%len(prefixes)]]), tokens...)
			}
			out = append(out, serve.Request{
				Prompt:       prompt,
				MaxNewTokens: outputStrata[op[j]],
				Temperature:  temperature,
				Seed:         seed<<20 + uint64(i),
			})
		}
	}
	return out
}

// temperature is the sampling temperature of every request: sampled decode
// with a per-request seed keeps outputs varied (greedy decode on these
// random-weight models collapses to one repeated token) and deterministic.
const temperature = 0.8

// arrivals returns the due offsets of n open-loop requests over window:
// evenly spaced at window/n, shifted by a seeded phase within the first
// gap. The offered load and the sample count are the same for every seed.
// A 30 s run has time for only 24–40 long-context requests. With Poisson or
// per-slot jittered arrivals, where a request's decode fell against its
// neighbours' prefills varied so much between seeds that median TPOT spread
// by half or more and median TTFT by a seventh to a fifth.
func arrivals(seed uint64, n int, window time.Duration) []time.Duration {
	gap := float64(window) / float64(n)
	phase := tensor.NewRNG(seed^0xa221_0b5e).Float64() * gap
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(phase + float64(i)*gap)
	}
	return out
}
