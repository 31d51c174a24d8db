// Command perfbench is the repository benchmark: it measures the
// predicate-abstraction pipeline end to end on three workloads and
// attributes the cost to the program's layers. See README.md for the
// workloads, metrics and reference figures. Run it from the repository
// root through run.sh, which builds it and the predabsd daemon:
//
//	bash perfbench/run.sh --workload table2-abstract --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 they are the per-layer ones, taken
// from spans recorded around the benchmark's own calls into each layer.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one workload run reports.
type outcome struct {
	Attempted int
	Failed    int
	// Problems lists every failed output check; any entry makes the
	// run incorrect and the command exit nonzero.
	Problems []string
	Metrics  map[string]metric
	// Notes are printed as human-readable lines before the result.
	Notes []string
}

func (o *outcome) problem(format string, args ...any) {
	o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}

func (o *outcome) set(name, unit string, v float64) {
	if o.Metrics == nil {
		o.Metrics = map[string]metric{}
	}
	o.Metrics[name] = metric{Value: v, Unit: unit}
}

// perLayer lists every per-layer metric with its unit, in the order
// README.md explains them. A traced run reports all of them; a layer a
// workload does not exercise, or cannot observe, reads 0 there.
var perLayer = []struct{ name, unit string }{
	{"prover.queries", "count"},
	{"prover.cache_hits", "count"},
	{"prover.ms", "ms"},
	{"prover.us_per_decided", "us"},
	{"abstract.self_ms", "ms"},
	{"abstract.cubes", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"frontend.ms", "ms"},
	{"alias.ms", "ms"},
	{"bebop.ms", "ms"},
	{"bebop.iterations", "count"},
	{"newton.ms", "ms"},
	{"slam.iterations", "count"},
	{"slam.predicates", "count"},
	{"slam.other_ms", "ms"},
	{"server.admit_ms", "ms"},
	{"server.notify_ms", "ms"},
	{"server.queue_ms", "ms"},
	{"server.cpu_ms_per_job", "ms"},
	{"worker.cpu_ms_per_job", "ms"},
	{"server.attempt_ms", "ms"},
	{"worker.verify_ms", "ms"},
	{"checkpoint.commit_ms", "ms"},
	{"server.disk_bytes_per_job", "bytes"},
	{"server.files_per_job", "count"},
	{"server.stale_status", "count"},
}

// setLayer records a per-layer figure under its declared unit.
func (o *outcome) setLayer(name string, v float64) {
	for _, m := range perLayer {
		if m.name == name {
			o.set(name, m.unit, v)
			return
		}
	}
	o.problem("internal: %q is not a declared per-layer metric", name)
}

// runConfig carries the command line into a workload.
type runConfig struct {
	Seed     int64
	Duration time.Duration
	Trace    bool
	// Short runs one pass with every check: the benchmark's smoke test.
	Short    bool
	Predabsd string
	WorkDir  string
	Spans    *spanLog
}

var workloads = []struct {
	name string
	run  func(runConfig) outcome
}{
	{"table2-abstract", runTable2},
	{"drivers-cegar", runDrivers},
	{"service-drivers", runService},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "workload to run (table2-abstract, drivers-cegar, service-drivers; with -short, empty runs all)")
	seed := fl.Int64("seed", 1, "workload seed: fixes subject order, concrete test inputs and service arrivals")
	seconds := fl.Int("seconds", 30, "measurement length of the run")
	traceFlag := fl.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	short := fl.Bool("short", false, "smoke test: one pass of each selected workload with every output check")
	predabsd := fl.String("predabsd", filepath.Join(".bench_build", "bin", "predabsd"), "predabsd binary for the service workload")
	workDir := fl.String("workdir", ".bench_build", "directory for daemon data and span files")
	commit := fl.String("commit", "unknown", "commit the program was built from")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	var selected []int
	for i, w := range workloads {
		if w.name == *workload || (*workload == "" && *short) {
			selected = append(selected, i)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(stderr, "perfbench: run from the repository root")
		return 2
	}
	digest, err := sourceDigest(".")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: hashing sources:", err)
		return 2
	}

	exit := 0
	for _, i := range selected {
		w := workloads[i]
		fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%d trace=%d short=%v commit=%s source_sha256=%s go=%s nproc=%d gomaxprocs=%d\n",
			w.name, *seed, *seconds, *traceFlag, *short, *commit, digest,
			runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
		cfg := runConfig{
			Seed: *seed, Duration: time.Duration(*seconds) * time.Second,
			Trace: *traceFlag == 1, Short: *short,
			Predabsd: *predabsd, WorkDir: *workDir,
		}
		if cfg.Trace {
			cfg.Spans = newSpanLog()
		}
		out := w.run(cfg)
		if cfg.Trace {
			for _, m := range perLayer {
				if _, ok := out.Metrics[m.name]; !ok {
					out.set(m.name, m.unit, 0)
				}
			}
		}
		if cfg.Spans != nil {
			path := filepath.Join(*workDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
			if err := cfg.Spans.write(path); err != nil {
				out.problem("writing spans: %v", err)
			} else {
				out.note("spans written to %s", path)
			}
		}
		for _, n := range out.Notes {
			fmt.Fprintln(stdout, "# "+n)
		}
		for _, p := range out.Problems {
			fmt.Fprintln(stderr, "perfbench: CHECK FAILED:", p)
		}
		correct := len(out.Problems) == 0
		if !correct {
			exit = 1
		}
		if out.Attempted < 1 {
			fmt.Fprintln(stderr, "perfbench: no operation was attempted")
			exit = 1
		}
		if err := printResult(stdout, correct, out); err != nil {
			fmt.Fprintln(stderr, "perfbench: result:", err)
			exit = 1
		}
	}
	return exit
}

// printResult writes the result object as one line.
func printResult(w io.Writer, correct bool, out outcome) error {
	data, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, out.Attempted, out.Failed, out.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}

// sourceDigest hashes go.mod and every Go source file of the module, so
// a run identifies the code it measured even where no git metadata is
// available.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || path == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
