package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestRequestsDeterministicAndExtendable(t *testing.T) {
	for _, sh := range shapes {
		a, b := sh.requests(7, 40), sh.requests(7, 24)
		if !reflect.DeepEqual(a[:24], b) {
			t.Errorf("%s: a shorter run is not a prefix of a longer one", sh.name)
		}
		if reflect.DeepEqual(a, sh.requests(8, 40)) {
			t.Errorf("%s: seeds 7 and 8 give the same requests", sh.name)
		}
		var outs []int
		lo, hi := sh.prompt.lo, sh.prompt.hi
		if len(sh.tenantPrefix) > 0 {
			lo += slices.Min(sh.tenantPrefix)
			hi += slices.Max(sh.tenantPrefix)
		}
		for i, r := range a {
			if len(r.Prompt) < lo || len(r.Prompt) > hi || r.MaxNewTokens < sh.output.lo || r.MaxNewTokens > sh.output.hi {
				t.Errorf("%s request %d: prompt %d, output %d outside %v, %v", sh.name, i, len(r.Prompt), r.MaxNewTokens, sh.prompt, sh.output)
			}
			outs = append(outs, r.MaxNewTokens)
		}
		// Stratified lengths: every block holds the same multiset, for any seed.
		first := slices.Sorted(slices.Values(outs[:block]))
		other := sh.requests(99, block)
		var otherOuts []int
		for _, r := range other {
			otherOuts = append(otherOuts, r.MaxNewTokens)
		}
		if !slices.Equal(first, slices.Sorted(slices.Values(otherOuts))) {
			t.Errorf("%s: output lengths of a block depend on the seed", sh.name)
		}
	}
}

func TestTenantPrefixesArePageAligned(t *testing.T) {
	sh, err := shapeByName("tenant-prefix")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range sh.tenantPrefix {
		if n%pageRows != 0 || n < 256 || n > 320 {
			t.Errorf("tenant prefix of %d tokens is not a page-aligned length in [256, 320]", n)
		}
	}
	// Tails are longer than one KV page, as real user turns are.
	if sh.prompt.lo <= pageRows {
		t.Errorf("user tails from %d tokens can fit inside one %d-row page", sh.prompt.lo, pageRows)
	}
	// Every tenant prefix is at least 256 tokens, so the first 256 name the
	// tenant; each sends the same share of every block.
	perTenant := map[string]int{}
	for _, r := range sh.requests(3, 2*block) {
		perTenant[fmt.Sprint(r.Prompt[:256])]++
	}
	tenants := len(sh.tenantPrefix)
	if len(perTenant) != tenants {
		t.Errorf("found %d tenants, want %d", len(perTenant), tenants)
	}
	for _, n := range perTenant {
		if n != 2*block/tenants {
			t.Errorf("a tenant sent %d of %d requests, want %d", n, 2*block, 2*block/tenants)
		}
	}
}

func TestArrivals(t *testing.T) {
	a := arrivals(5, 30, 30*time.Second)
	if !slices.IsSorted(a) || a[0] < 0 || a[len(a)-1] >= 30*time.Second {
		t.Errorf("arrivals are not sorted inside the window: %v", a)
	}
	if !slices.Equal(a, arrivals(5, 30, 30*time.Second)) || slices.Equal(a, arrivals(6, 30, 30*time.Second)) {
		t.Error("arrivals must be a function of the seed")
	}
}

// benchmarkFile is the part of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestBenchmarkFileMatchesProgram keeps BENCHMARK.json's workload names,
// their stated SLO limits and the metric lists in step with the code.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(shapes) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(f.Workloads), len(shapes))
	}
	for i, w := range f.Workloads {
		sh := shapes[i]
		if w.Name != sh.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, sh.name)
		}
		slo := fmt.Sprintf("SLO TTFT<=%dms TPOT<=%dms", sh.ttftSLO.Milliseconds(), sh.tpotSLO.Milliseconds())
		if !strings.Contains(w.Why, slo) {
			t.Errorf("workload %s: why %q does not state %q", w.Name, w.Why, slo)
		}
	}
	for _, c := range []struct {
		section string
		file    []struct{ Name, Unit, Better string }
		code    []metricDef
	}{{"end_to_end", f.EndToEnd, endToEndMetrics}, {"per_layer", f.PerLayer, layerMetrics}} {
		if len(c.file) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", c.section, len(c.file), len(c.code))
			continue
		}
		for i, m := range c.file {
			if d := c.code[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %v, program %v", c.section, i, m, d)
			}
		}
	}
}
