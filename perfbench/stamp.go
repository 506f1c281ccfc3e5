package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// stamp describes the machine and the scenario a result was measured
// under. Results with different stamps are not compared.
func stamp(cfg runConfig) map[string]any {
	avx2, fma := cpuFlags()
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"nproc":             runtime.NumCPU(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"goarch":            runtime.GOARCH,
		"goos":              runtime.GOOS,
		"avx2":              avx2,
		"fma":               fma,
		"go_version":        runtime.Version(),
		"commit":            commit,
		"source_sha256":     sourceHash("."),
		"workload":          cfg.shape.name,
		"seed":              cfg.seed,
		"seconds":           cfg.window.Seconds(),
		"trace":             cfg.trace,
		"model":             modelName,
		"engine":            engineSpec,
		"max_batch":         maxBatch,
		"kv_budget_rows":    kvBudgetRows,
		"prefix_cache_rows": prefixCacheRows,
		"setup_builds":      builds,
	}
}

// sourceHash fingerprints the Go sources and module files under root, so
// a result names the code it measured even where no VCS revision is
// recorded. Hidden directories (build outputs) are skipped.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(path))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuFlags reports the AVX2 and FMA flags of the first CPU in /proc/cpuinfo.
func cpuFlags() (avx2, fma bool) {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return false, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if len(line) < 5 || line[:5] != "flags" {
			continue
		}
		for _, fl := range bytes.Fields([]byte(line)) {
			switch string(fl) {
			case "avx2":
				avx2 = true
			case "fma":
				fma = true
			}
		}
		return avx2, fma
	}
	return false, false
}
