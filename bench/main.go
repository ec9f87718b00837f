// Command bench is the repository's live end-to-end benchmark: it runs
// named workloads on the shipped engine over real loopback TCP, checks
// the outputs and prints every metric by name with its unit. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
)

// benchVersion changes whenever workloads, phases or metric definitions
// change, so that -compare never sets numbers of two different
// benchmarks side by side.
const benchVersion = 1

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is one run of one workload as stored in a result file.
type runRecord struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	Seconds    float64 `json:"seconds"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`

	Correct   bool     `json:"correct"`
	Attempted uint64   `json:"attempted"`
	Failed    uint64   `json:"failed"`
	Invalid   []string `json:"invalid,omitempty"`

	Metrics map[string]metricValue `json:"metrics"`
	// Info holds numbers that are printed but never gated.
	Info  map[string]metricValue `json:"info,omitempty"`
	Spans []span                 `json:"spans,omitempty"`
}

type resultFile struct {
	BenchVersion int         `json:"bench_version"`
	Runs         []runRecord `json:"runs"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "all", "workload to run: all, or one of local-sat, remote-sat, flickr-rate, flickr-reconf")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	secs := fs.Float64("seconds", nominalSeconds, "nominal length of the measured part of one run")
	trace := fs.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run; -1: one pass of each")
	out := fs.String("out", "", "append the full results (and, traced, the spans) to this JSON file")
	compare := fs.Bool("compare", false, "compare two result files given as arguments instead of running")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}

	todo := specs
	if *workloadName != "all" {
		sp, ok := specByName(*workloadName)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workloadName)
			return 2
		}
		todo = []spec{sp}
	}
	var passes []bool
	switch *trace {
	case 0:
		passes = []bool{false}
	case 1:
		passes = []bool{true}
	case -1:
		passes = []bool{false, true}
	default:
		fmt.Fprintln(stderr, "bench: -trace takes 0, 1 or -1")
		return 2
	}
	if *secs <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}

	// A single run ends with the one-line JSON result on standard output;
	// the readable table then goes to standard error.
	single := len(todo) == 1 && len(passes) == 1
	table := stdout
	if single {
		table = stderr
	}
	var records []runRecord
	allCorrect := true
	for _, traced := range passes {
		for _, sp := range todo {
			rec, err := measure(sp, *seed, *secs, traced)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", sp.name, err)
				return 1
			}
			printRecord(table, rec)
			allCorrect = allCorrect && rec.Correct
			records = append(records, rec)
		}
	}
	if *out != "" {
		if err := appendResults(*out, records); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if single {
		rec := records[0]
		line, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted uint64                 `json:"attempted"`
			Failed    uint64                 `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if !allCorrect {
		return 1
	}
	return 0
}

// measure runs one workload once and files what it measured.
func measure(sp spec, seed int64, secs float64, traced bool) (runRecord, error) {
	rec := runRecord{
		Workload: sp.name, Seed: seed, Trace: traced, Seconds: secs,
		Commit: commit(), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Metrics: make(map[string]metricValue),
	}
	o, err := runWorkload(sp, seed, secs, fullSize, traced)
	if err != nil {
		return rec, err
	}
	rec.Correct, rec.Attempted, rec.Failed, rec.Invalid = o.correct(), o.attempted, o.failed(), o.invalid
	values, defs := endToEndMetrics(o), endToEnd
	if traced {
		micro, err := microMetrics(o.gen.pool)
		if err != nil {
			return rec, err
		}
		values, defs = o.tr.metrics, perLayer
		for name, v := range micro {
			values[name] = v
		}
		rec.Spans = o.tr.spans
	} else {
		info := func(name string, v float64, unit string) { rec.Info[name] = metricValue{v, unit} }
		rec.Info = make(map[string]metricValue)
		lo, hi := o.pooled(phLo, loWindows), o.pooled(phHi, hiWindows)
		info("latency_lo_p99_us", o.windowQuantile(phLo, loWindows, 0.99), "us")
		info("latency_hi_p99_us", o.windowQuantile(phHi, hiWindows, 0.99), "us")
		info("latency_lo_p999_us", micros(lo.quantile(0.999)), "us") // of the pooled windows
		info("latency_hi_p999_us", micros(hi.quantile(0.999)), "us")
		info("latency_hi_p90_us", o.windowQuantile(phHi, hiWindows, 0.90), "us")
		info("latency_during_p50_us", o.windowQuantile(phDuring, duringWindows, 0.50), "us")
		info("locality_after", o.locality, "share")
		info("gen_late_p50_us", micros(o.gen.late.quantile(0.50)), "us")
		info("gen_late_p99_us", micros(o.gen.late.quantile(0.99)), "us")
		info("throughput_min_tps", slices.Min(o.segments), "1/s")
		info("throughput_max_tps", slices.Max(o.segments), "1/s")
		info("rounds", float64(len(o.rounds)), "count")
		info("samples_lo", float64(lo.n), "count")
		info("samples_hi", float64(hi.n), "count")
		info("samples_during", float64(o.pooled(phDuring, duringWindows).n), "count")
	}
	for _, d := range defs {
		rec.Metrics[d.name] = metricValue{values[d.name], d.unit}
	}
	return rec, nil
}

// commit returns the VCS revision the binary was built from, when the
// build recorded one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func printRecord(w io.Writer, rec runRecord) {
	pass, defs := "end-to-end", endToEnd
	if rec.Trace {
		pass, defs = "per-layer (traced)", perLayer
	}
	fmt.Fprintf(w, "== %s  %s  seed %d  %.0f s  GOMAXPROCS %d\n", rec.Workload, pass, rec.Seed, rec.Seconds, rec.GOMAXPROCS)
	for _, d := range defs {
		fmt.Fprintf(w, "%-34s %16.4f %s\n", d.name, rec.Metrics[d.name].Value, d.unit)
	}
	for _, name := range sortedKeys(rec.Info) {
		fmt.Fprintf(w, "%-34s %16.4f %s (not gated)\n", name, rec.Info[name].Value, rec.Info[name].Unit)
	}
	fmt.Fprintf(w, "%-34s %16d of %d attempted\n", "failed", rec.Failed, rec.Attempted)
	for _, why := range rec.Invalid {
		fmt.Fprintf(w, "INVALID: %s\n", why)
	}
	if !rec.Correct {
		fmt.Fprintln(w, "RESULT: incorrect")
	}
}

// appendResults adds records to the result file at path, creating it if
// needed. It refuses a file written by another version of the benchmark.
func appendResults(path string, records []runRecord) error {
	file := resultFile{BenchVersion: benchVersion}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &file); err != nil {
			return fmt.Errorf("read %s: %w", path, err)
		}
		if file.BenchVersion != benchVersion {
			return fmt.Errorf("%s holds results of bench_version %d, this is %d", path, file.BenchVersion, benchVersion)
		}
	case !errors.Is(err, os.ErrNotExist):
		return err
	}
	file.Runs = append(file.Runs, records...)
	data, err = json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
