package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// quartiles returns the first and third quartile of v the way Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is how
// the spread of a metric is judged. v needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	if med := median(v); med != 0 {
		return (q3 - q1) / med
	}
	return 0
}

func loadResults(path string) (map[string]map[string][]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file resultFile
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if file.BenchVersion != benchVersion {
		return nil, fmt.Errorf("%s holds results of bench_version %d, this is %d", path, file.BenchVersion, benchVersion)
	}
	// workload -> metric -> one value per end-to-end run
	values := make(map[string]map[string][]float64)
	for _, r := range file.Runs {
		if r.Trace {
			continue
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s: an incorrect run of %s (seed %d) cannot be compared", path, r.Workload, r.Seed)
		}
		if values[r.Workload] == nil {
			values[r.Workload] = make(map[string][]float64)
		}
		for name, m := range r.Metrics {
			values[r.Workload][name] = append(values[r.Workload][name], m.Value)
		}
	}
	return values, nil
}

// verdict judges candidate b against baseline a for one metric on one
// workload. worse is how much worse b's median is, as a share of a's.
func verdict(d metricDef, a, b []float64) (worse float64, word string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / ma
		if d.better == "higher" {
			worse = -worse
		}
	}
	switch {
	case spread(a) > d.bound || spread(b) > d.bound:
		return worse, "unresolved"
	case worse > d.bound:
		return worse, "worse"
	case worse < -d.bound:
		return worse, "better"
	}
	return worse, "unchanged"
}

// compareFiles prints one row per workload and end-to-end metric and
// returns a non-zero code when any is worse.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, errA := loadResults(pathA)
	b, errB := loadResults(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	return compareResults(a, b, stdout)
}

func compareResults(a, b map[string]map[string][]float64, stdout io.Writer) int {
	code := 0
	fmt.Fprintf(stdout, "%-14s %-22s %14s %7s %14s %7s %8s %6s  %s\n",
		"workload", "metric", "median a", "iqr a", "median b", "iqr b", "worse by", "bound", "verdict")
	for _, sp := range specs {
		for _, d := range endToEnd {
			va, vb := a[sp.name][d.name], b[sp.name][d.name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			worse, word := verdict(d, va, vb)
			if word == "worse" {
				code = 1
			}
			fmt.Fprintf(stdout, "%-14s %-22s %14.4f %6.1f%% %14.4f %6.1f%% %+7.1f%% %5.0f%%  %s\n",
				sp.name, d.name, median(va), 100*spread(va), median(vb), 100*spread(vb), 100*worse, 100*d.bound, word)
		}
	}
	return code
}
