// Command perfbench is the repository's serving benchmark. It builds the
// tender:int serving stack in-process, drives one named workload against
// it, checks every output, and prints the run's metrics as the last line
// of standard output:
//
//	go build -o perfbench . && ./perfbench --workload chat-decode --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
// --trace 1 it reports the per-layer metrics, taken by timing calls into
// the program's public functions from this package (see README.md).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"tender/internal/serve"
)

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workloadName := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Uint64("seed", 1, "workload seed: request content, lengths and arrivals")
	seconds := flag.Int("seconds", 30, "length of the measurement window")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	sh, err := shapeByName(*workloadName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	cfg := runConfig{shape: sh, seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	res, detail, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	detail["stamp"] = stamp(cfg)
	if err := printJSON(detail); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printJSON(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: correctness check failed:", detail["check"])
		os.Exit(1)
	}
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

type runConfig struct {
	shape  shape
	seed   uint64
	window time.Duration
	trace  bool
}

// run sets up, measures and checks one workload run.
func run(cfg runConfig) (result, map[string]any, error) {
	st, times, err := setup()
	if err != nil {
		return result{}, nil, err
	}
	defer st.srv.Stop()
	if cfg.trace {
		return runTraced(cfg, st, times)
	}
	return runTimed(cfg, st, times)
}

// load runs one phase of the workload against gen.
func load(cfg runConfig, gen serve.Generator) (phase, error) {
	sh := cfg.shape
	if sh.openLoop() {
		n := int(sh.rate*cfg.window.Seconds() + 0.5)
		return runOpen(gen, sh.requests(cfg.seed, n), arrivals(cfg.seed, n, cfg.window), cfg.window), nil
	}
	reqs := sh.requests(cfg.seed, maxClosedRequests)
	p := runClosed(gen, reqs, sh.clients, closedWarmup, cfg.window)
	if len(p.recs) == len(reqs) {
		return p, errors.New("closed loop ran out of requests; raise maxClosedRequests")
	}
	return p, nil
}

// closedWarmup is how long a closed loop runs before its window opens: the
// first requests all arrive together, and their synchronized prefills
// would otherwise sit in the TTFT tail.
const closedWarmup = 2 * time.Second

// maxClosedRequests bounds the requests a closed loop can send. A 30 s
// chat-decode window on a 2-vCPU host sends fewer than 200.
const maxClosedRequests = 4000
