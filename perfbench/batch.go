package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"predabs"
	"predabs/internal/abstract"
	"predabs/internal/alias"
	"predabs/internal/bebop"
	"predabs/internal/bp"
	"predabs/internal/corpus"
	"predabs/internal/cparse"
	"predabs/internal/form"
	"predabs/internal/prover"
)

// driverMaxIterations is the CEGAR bound TestSection61DriverOutcomes uses.
const driverMaxIterations = 30

// timedProver is the real prover with its two query entry points timed.
// Embedding keeps the prover's optional counter methods (Calls,
// CacheHits, ...) visible to the layers that look for them.
type timedProver struct {
	*prover.Prover
	ns atomic.Int64
}

func (t *timedProver) Valid(hyp, goal form.Formula) bool {
	start := time.Now()
	v := t.Prover.Valid(hyp, goal)
	t.ns.Add(int64(time.Since(start)))
	return v
}

func (t *timedProver) Unsat(f form.Formula) bool {
	start := time.Now()
	v := t.Prover.Unsat(f)
	t.ns.Add(int64(time.Since(start)))
	return v
}

func (t *timedProver) elapsed() time.Duration { return time.Duration(t.ns.Load()) }

// abstractOptions are the program's defaults with one cube-search
// worker, so each operation is single-threaded.
func abstractOptions() predabs.Options {
	o := predabs.DefaultOptions()
	o.Jobs = 1
	return o
}

// layers accumulates one pass's per-layer figures.
type layers map[string]float64

// opFunc runs one subject once. It returns the cost from call to
// verdict and an error when the verdict or output is wrong; lay is nil
// on untraced passes. key is a digest of the output that must repeat
// across repetitions.
type opFunc func(p corpus.Program, opID string, spans *spanLog, lay layers) (c cost, key string, err error)

// batch describes one in-process workload.
type batch struct {
	subjects []corpus.Program
	op       opFunc
	// setup prepares the inputs once; its time is reported as setup_s.
	setup func(subjects []corpus.Program) error
	// check runs the concrete-execution checks of one subject, outside
	// any timed region.
	check func(p corpus.Program, seed int64) error
}

// deriveProver turns a traced pass's raw sums into the reported prover
// and abstraction figures. On drivers-cegar, Newton's path-feasibility
// queries share the timed prover, so abstract.self_ms slightly
// understates the abstraction's own time there.
func deriveProver(lay layers) {
	decided := lay["prover.queries"] - lay["prover.cache_hits"]
	lay["prover.us_per_decided"] = 1000 * lay["prover.ms"] / decided
	lay["abstract.self_ms"] = lay["abstract.ms"] - lay["prover.ms"]
	delete(lay, "abstract.ms")
}

// setupRounds is how many set-up samples a run takes; setup_s is their
// median.
const setupRounds = 15

func runBatch(cfg runConfig, b batch) outcome {
	var out outcome
	rng := rand.New(rand.NewSource(cfg.Seed))

	var setups, setupWalls []float64
	for i := 0; i < setupRounds; i++ {
		watch := startWatch()
		if err := b.setup(b.subjects); err != nil {
			out.problem("setup: %v", err)
			out.Attempted = len(b.subjects)
			out.Failed = len(b.subjects)
			return out
		}
		c := watch.read()
		setups = append(setups, c.CPU.Seconds())
		setupWalls = append(setupWalls, c.Wall.Seconds())
	}

	// Output checks that do not repeat per operation run once, before
	// measuring; a failed subject fails every one of its operations.
	badSubject := map[string]bool{}
	for _, p := range b.subjects {
		if err := b.check(p, cfg.Seed); err != nil {
			out.problem("%s: %v", p.Name, err)
			badSubject[p.Name] = true
		}
	}

	// One warm-up pass fills lazily built state and records the output
	// every later repetition must reproduce.
	want := map[string]string{}
	for _, p := range b.subjects {
		_, key, err := b.op(p, "warmup/"+p.Name, nil, nil)
		if err != nil {
			out.problem("%v", err)
			badSubject[p.Name] = true
		}
		want[p.Name] = key
	}

	perSubject := map[string][]float64{}     // CPU ms per operation
	perSubjectWall := map[string][]float64{} // wall ms per operation
	var passUntraced, passTraced, passWall []float64
	lay := samples{}
	deadline := time.Now().Add(cfg.Duration)
	shortPasses := 1
	if cfg.Trace {
		shortPasses = 2
	}
	for pass := 0; ; pass++ {
		if cfg.Short && pass == shortPasses || !cfg.Short && pass > 0 && time.Now().After(deadline) {
			break
		}
		// Traced runs alternate untraced and traced passes; the
		// difference of their pass times is the tracing overhead.
		traced := cfg.Trace && pass%2 == 1
		var pl layers
		var spans *spanLog
		var ms0 runtime.MemStats
		if traced {
			pl = layers{}
			spans = cfg.Spans
			runtime.ReadMemStats(&ms0)
		}
		var passCost cost
		for _, i := range rng.Perm(len(b.subjects)) {
			p := b.subjects[i]
			opID := fmt.Sprintf("pass%d/%s", pass, p.Name)
			// Each operation starts on a collected heap, so the
			// collector's work on the previous operation's garbage is
			// not charged to this one.
			runtime.GC()
			c, key, err := b.op(p, opID, spans, pl)
			out.Attempted++
			switch {
			case err != nil:
				out.problem("%s: %v", opID, err)
				out.Failed++
				continue
			case key != want[p.Name]:
				out.problem("%s: output differs from the first repetition", opID)
				out.Failed++
				continue
			case badSubject[p.Name]:
				out.Failed++
			}
			passCost.CPU += c.CPU
			passCost.Wall += c.Wall
			if !traced {
				perSubject[p.Name] = append(perSubject[p.Name], ms(c.CPU))
				perSubjectWall[p.Name] = append(perSubjectWall[p.Name], ms(c.Wall))
			}
		}
		if traced {
			var ms1 runtime.MemStats
			runtime.ReadMemStats(&ms1)
			pl["runtime.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
			pl["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
			deriveProver(pl)
			for k, v := range pl {
				lay.add(k, v)
			}
			passTraced = append(passTraced, passCost.CPU.Seconds())
		} else {
			passUntraced = append(passUntraced, passCost.CPU.Seconds())
			passWall = append(passWall, passCost.Wall.Seconds())
		}
	}

	out.note("passes: %d untraced, %d traced, %d subjects each; untraced pass_cpu_s %s; wall s %s",
		len(passUntraced), len(passTraced), len(b.subjects), fmtSeries(passUntraced), fmtSeries(passWall))
	if cfg.Trace {
		if len(passTraced) > 0 {
			over := median(passTraced) - median(passUntraced)
			out.note("tracing overhead: traced pass_cpu_s %.4f - untraced pass_cpu_s %.4f = %.4f s (%.1f%%)",
				median(passTraced), median(passUntraced), over, 100*over/median(passUntraced))
		}
		for k, v := range lay.medians() {
			out.setLayer(k, v)
		}
		return out
	}
	var subjectMedians []float64
	for _, p := range b.subjects {
		m := median(perSubject[p.Name])
		subjectMedians = append(subjectMedians, m)
		out.note("%s: median %.3f CPU ms, %.3f wall ms over %d", p.Name, m,
			median(perSubjectWall[p.Name]), len(perSubject[p.Name]))
	}
	out.note("wall: pass median %.4f s, set-up median %.6f s", median(passWall), median(setupWalls))
	out.set("setup_s", "s", median(setups))
	out.set("peak_rss_mb", "MB", selfPeakRSSMB())
	out.set("pass_cpu_s", "s", median(passUntraced))
	out.set("verdict_cpu_ms.geomean", "ms", geomean(subjectMedians))
	return out
}

// ---- table2-abstract ----

func runTable2(cfg runConfig) outcome {
	return runBatch(cfg, batch{
		subjects: corpus.Table2(),
		op:       table2Op,
		setup:    loadAll,
		check:    table2Soundness,
	})
}

// loadAll parses and analyses every subject through the facade: the
// part of an operation that depends only on the source text.
func loadAll(subjects []corpus.Program) error {
	for _, p := range subjects {
		if _, err := load(p); err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
	}
	return nil
}

func load(p corpus.Program) (*predabs.Program, error) {
	if p.GhostAliasing {
		return predabs.LoadGhostAliasing(p.Source)
	}
	return predabs.Load(p.Source)
}

// table2Op is Load, Abstract with the subject's predicate file, then
// Bebop from the entry procedure. Untraced, it calls the facade;
// traced, it calls the same layers directly so each can be timed, and
// the warm-up's facade output proves both paths emit the same program.
func table2Op(p corpus.Program, opID string, spans *spanLog, lay layers) (cost, string, error) {
	if lay != nil {
		return table2Traced(p, opID, spans, lay)
	}
	watch := startWatch()
	prog, err := load(p)
	if err != nil {
		return cost{}, "", fmt.Errorf("%s: %w", p.Name, err)
	}
	bprog, err := prog.Abstract(p.Preds, abstractOptions())
	if err != nil {
		return cost{}, "", fmt.Errorf("%s: %w", p.Name, err)
	}
	res, err := bprog.Check(p.Entry)
	if err != nil {
		return cost{}, "", fmt.Errorf("%s: %w", p.Name, err)
	}
	proc, _, bad := res.ErrorReachable()
	d := watch.read()
	if bad {
		return d, "", fmt.Errorf("%s: Bebop reaches an assert in %s; Table 2 reports none", p.Name, proc)
	}
	return d, bprog.Text(), nil
}

func table2Traced(p corpus.Program, opID string, spans *spanLog, lay layers) (cost, string, error) {
	watch := startWatch()
	root := spans.begin(opID, "op", 0)
	sp := spans.begin(opID, "frontend", root.ID)
	norm, err := normalize(p.Source)
	if err != nil {
		return cost{}, "", fmt.Errorf("%s: %w", p.Name, err)
	}
	lay["frontend.ms"] += ms(sp.end())

	sp = spans.begin(opID, "alias", root.ID)
	aa := alias.AnalyzeOpts(norm, alias.Options{OpenCallers: !p.GhostAliasing})
	lay["alias.ms"] += ms(sp.end())

	sp = spans.begin(opID, "abstract", root.ID)
	secs, err := cparse.ParsePredFile(p.Preds)
	if err != nil {
		return cost{}, "", err
	}
	tp := &timedProver{Prover: prover.New()}
	abs, err := abstract.Abstract(norm, aa, tp, secs, abstractOptions())
	if err != nil {
		return cost{}, "", err
	}
	lay["abstract.ms"] += ms(sp.end())
	spans.record(span{Op: opID, Name: "prover(sum)", Parent: sp.ID}, sp.start, sp.start.Add(tp.elapsed()))
	lay["prover.ms"] += ms(tp.elapsed())
	lay["prover.queries"] += float64(tp.Calls())
	lay["prover.cache_hits"] += float64(tp.CacheHits())
	lay["abstract.cubes"] += float64(abs.Stats.CubesChecked)

	sp = spans.begin(opID, "bebop", root.ID)
	ch, err := bebop.Check(abs.BP, p.Entry)
	if err != nil {
		return cost{}, "", err
	}
	lay["bebop.ms"] += ms(sp.end())
	lay["bebop.iterations"] += float64(ch.Iterations)
	root.end()
	d := watch.read()
	if f, bad := ch.ErrorReachable(); bad {
		return d, "", fmt.Errorf("%s: Bebop reaches an assert in %s; Table 2 reports none", p.Name, f.Proc)
	}
	return d, bp.Print(abs.BP), nil
}

// ---- drivers-cegar ----

func runDrivers(cfg runConfig) outcome {
	return runBatch(cfg, batch{
		subjects: corpus.Drivers(),
		op:       driverOp,
		setup:    instrumentAll,
		check:    driverConcreteRuns,
	})
}

// driverOp is one full VerifySpec of a Table 1 driver against the
// locking/IRP specification.
func driverOp(p corpus.Program, opID string, spans *spanLog, lay layers) (cost, string, error) {
	vc := predabs.DefaultVerifyConfig()
	vc.MaxIterations = driverMaxIterations
	vc.Opts.Jobs = 1
	var tp *timedProver
	if lay != nil {
		tp = &timedProver{Prover: prover.New()}
		vc.Prover = tp
	}
	sp := spans.begin(opID, "verify", 0)
	watch := startWatch()
	res, err := predabs.VerifySpec(p.Source, p.Spec, p.Entry, vc)
	d := watch.read()
	sp.end()
	if err != nil {
		return d, "", fmt.Errorf("%s: %w", p.Name, err)
	}
	want := predabs.Verified
	if p.ExpectError {
		want = predabs.ErrorFound
	}
	if res.Outcome != want {
		return d, "", fmt.Errorf("%s: outcome %s, Section 6.1 reports %s", p.Name, res.Outcome, want)
	}
	if p.ExpectError && len(res.ErrorTrace) == 0 {
		return d, "", fmt.Errorf("%s: error found without a trace", p.Name)
	}
	if lay != nil {
		stages := res.AbstractTime + res.CheckTime + res.NewtonTime
		lay["prover.ms"] += ms(tp.elapsed())
		lay["prover.queries"] += float64(res.ProverCalls)
		lay["prover.cache_hits"] += float64(res.CacheHits)
		lay["abstract.ms"] += ms(res.AbstractTime)
		lay["bebop.ms"] += ms(res.CheckTime)
		lay["bebop.iterations"] += float64(res.CheckIterations)
		lay["newton.ms"] += ms(res.NewtonTime)
		lay["slam.iterations"] += float64(res.Iterations)
		lay["slam.predicates"] += float64(res.PredCount)
		lay["slam.other_ms"] += ms(d.Wall - stages)
	}
	return d, fmt.Sprintf("%s/%d/%d/%d", res.Outcome, res.Iterations, res.PredCount, res.ProverCalls), nil
}

func fmtSeries(xs []float64) string {
	var b strings.Builder
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.3f", x)
	}
	return b.String()
}
