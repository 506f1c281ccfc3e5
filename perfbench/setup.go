package main

import (
	"fmt"
	"runtime"
	"time"

	"tender/internal/engine"
	"tender/internal/model"
	"tender/internal/obs"
	"tender/internal/serve"
)

// Server under test, the same for every workload: opt-6.7b with the
// tender:int engine (8-bit, default calibration), naive kernel, fused
// decode, paged f64 KV and the prefix cache, all at the serve defaults
// except the KV budget and the prefix cache's cap.
const (
	modelName  = "opt-6.7b"
	engineSpec = "tender:int"
	maxBatch   = 8
	// kvBudgetRows bounds the KV pool. Eight requests of the longest shape
	// (480+48 rows) need 4224 rows, so the budget never holds or preempts a
	// live request at these concurrencies.
	kvBudgetRows = 8192
	// prefixCacheRows bounds the prefix cache inside that budget. It holds
	// the four tenant prompts (at most 1280 rows) with room to spare, and it
	// fills early in a run, so peak memory does not grow with the number of
	// requests a run completes.
	prefixCacheRows = 2048
)

// builds is how many times set-up runs per benchmark run; set-up time is
// their median.
const builds = 5

// stack is one built serving stack.
type stack struct {
	m    *model.Model
	spec string // the engine's canonical spec, its key in engines
	eng  model.Engine
	srv  *serve.Server
}

// newServer starts a server for eng on m, optionally traced.
func newServer(m *model.Model, spec string, eng model.Engine, tracer *obs.Tracer) (*serve.Server, error) {
	srv, err := serve.New(serve.Config{
		Model:           m,
		Engines:         map[string]model.Engine{spec: eng},
		MaxBatch:        maxBatch,
		KVBudgetRows:    kvBudgetRows,
		PrefixCache:     true,
		PrefixCacheRows: prefixCacheRows,
		Tracer:          tracer,
	})
	if err != nil {
		return nil, err
	}
	srv.Start()
	return srv, nil
}

// setupTimes is one set-up, by stage.
type setupTimes struct{ modelNew, buildEngines, serverStart time.Duration }

func (s setupTimes) total() time.Duration { return s.modelNew + s.buildEngines + s.serverStart }

// build runs set-up once, timing model.New, engine.BuildEngines and
// serve.New+Start.
func build() (stack, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	m := model.New(model.Registry(modelName))
	t1 := time.Now()
	engines, err := engine.BuildEngines(m, []string{engineSpec}, engine.BuildOptions{Serving: true})
	if err != nil {
		return stack{}, st, fmt.Errorf("build engines: %w", err)
	}
	t2 := time.Now()
	if len(engines) != 1 {
		return stack{}, st, fmt.Errorf("build engines: got %d engines for %q", len(engines), engineSpec)
	}
	var s stack
	s.m = m
	for spec, eng := range engines {
		s.spec, s.eng = spec, eng
	}
	s.srv, err = newServer(m, s.spec, s.eng, nil)
	if err != nil {
		return stack{}, st, fmt.Errorf("start server: %w", err)
	}
	t3 := time.Now()
	st = setupTimes{modelNew: t1.Sub(t0), buildEngines: t2.Sub(t1), serverStart: t3.Sub(t2)}
	return s, st, nil
}

// setup builds the stack builds times from a collected heap and keeps the
// last one running.
func setup() (stack, []setupTimes, error) {
	var times []setupTimes
	var s stack
	for i := 0; i < builds; i++ {
		if s.srv != nil {
			s.srv.Stop()
		}
		runtime.GC()
		var st setupTimes
		var err error
		if s, st, err = build(); err != nil {
			return stack{}, nil, err
		}
		times = append(times, st)
	}
	return s, times, nil
}
