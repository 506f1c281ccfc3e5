package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	v, err := percentile(seq(100), 0.90)
	if err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90 with 10 samples beyond", v, err)
	}
	if _, err := percentile(seq(99), 0.90); err == nil {
		t.Fatal("p90 of 99 samples leaves 9 beyond it and must be refused")
	}
	if v, err := percentile(seq(21), 0.5); err != nil || v != 11 {
		t.Fatalf("p50 of 1..21 = %v, %v; want 11", v, err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("a percentile of no samples must be refused")
	}
}

func TestTailFallsBackToWhatTheSampleSupports(t *testing.T) {
	for _, tc := range []struct {
		n     int
		wantQ float64
		want  float64
	}{
		{n: 200, wantQ: 0.90, want: 180},
		{n: 100, wantQ: 0.90, want: 90},
		{n: 30, wantQ: 20.0 / 30, want: 20},
		{n: 11, wantQ: 1.0 / 11, want: 1},
	} {
		v, q, err := tail(seq(tc.n), 0.90)
		if err != nil || q != tc.wantQ || v != tc.want {
			t.Errorf("tail of %d samples = %v at q=%v (%v); want %v at q=%v", tc.n, v, q, err, tc.want, tc.wantQ)
		}
		if beyond := tc.n - int(v); beyond < minBeyond {
			t.Errorf("tail of %d samples leaves %d beyond it", tc.n, beyond)
		}
	}
	if _, _, err := tail(seq(10), 0.90); err == nil {
		t.Error("10 samples support no percentile with 10 beyond it")
	}
}

func TestTPOT(t *testing.T) {
	if _, ok := tpot(50*time.Millisecond, 50*time.Millisecond, 1); ok {
		t.Error("a one-token output has no inter-token gap and must yield no sample")
	}
	if _, ok := tpot(0, 0, 0); ok {
		t.Error("an empty output must yield no sample")
	}
	if gap, ok := tpot(130*time.Millisecond, 40*time.Millisecond, 4); !ok || gap != 30*time.Millisecond {
		t.Errorf("tpot(130ms, 40ms, 4 tokens) = %v, %v; want 30ms", gap, ok)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median(3,1,2) = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median(4,1,3,2) = %v", m)
	}
}
