package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"syscall"

	"predabs/internal/abstract"
	"predabs/internal/alias"
	"predabs/internal/bebop"
	"predabs/internal/bp"
	"predabs/internal/cinterp"
	"predabs/internal/cnorm"
	"predabs/internal/corpus"
	"predabs/internal/cparse"
	"predabs/internal/ctype"
	"predabs/internal/form"
	"predabs/internal/prover"
	"predabs/internal/spec"
)

// concreteRuns is the number of seeded interpreter runs per subject.
const concreteRuns = 200

// subjectRand derives one concrete run's generator from the workload
// seed, the subject and the run index.
func subjectRand(seed int64, name string, run int) *rand.Rand {
	h := int64(0)
	for _, c := range name {
		h = h*131 + int64(c)
	}
	return rand.New(rand.NewSource(seed*1_000_003 + h*7919 + int64(run)))
}

// table2Args builds the entry arguments (and the heap and arrays they
// point into) of one concrete run of a Table 2 subject.
func table2Args(name string, r *rand.Rand, env *form.Env) []int64 {
	switch name {
	case "kmp":
		m := 1 + r.Intn(4)
		n := r.Intn(7)
		pat := intArray(r, env, "$pat", m, 3)
		txt := intArray(r, env, "$txt", n, 3)
		return []int64{pat, int64(m), txt, int64(n)}
	case "qsort":
		n := 1 + r.Intn(6)
		a := intArray(r, env, "$a", n, 9)
		return []int64{a, int64(r.Intn(2)), int64(n - 1 - r.Intn(2))}
	case "partition":
		slot := env.AddrOfVar("$headslot")
		env.Mem[slot] = randomList(r, env, 4)
		return []int64{slot, int64(r.Intn(5) - 2)}
	case "listfind":
		head := randomList(r, env, 4)
		return []int64{head, int64(r.Intn(5) - 2)}
	case "reverse":
		// The subject is loaded in ghost-aliasing mode, whose contract is
		// that the observer h and its successor live outside the
		// traversed list; the runs respect it.
		head := randomList(r, env, 4)
		for i := 0; i < 4; i++ {
			env.Store(form.Sel{X: form.Var{Name: cellName(i)}, Field: "mark"}, 0)
		}
		h := env.AddrOfVar("$ghost")
		next := int64(0)
		if r.Intn(2) == 0 {
			next = env.AddrOfVar("$ghostnext")
		}
		env.Store(form.Sel{X: form.Var{Name: "$ghost"}, Field: "next"}, next)
		return []int64{head, h}
	}
	return nil
}

// intArray stores n random values in [0, max) as an array variable
// and returns its address; element i lives at address+1+i.
func intArray(r *rand.Rand, env *form.Env, name string, n, max int) int64 {
	a := env.AddrOfVar(name)
	for i := 0; i < n; i++ {
		env.Mem[a+1+int64(i)] = int64(r.Intn(max))
	}
	return a
}

// randomList links up to n heap cells with random val and mark fields
// and returns the head address, or 0 for the empty list.
func randomList(r *rand.Rand, env *form.Env, n int) int64 {
	addrs := make([]int64, n)
	for i := range addrs {
		addrs[i] = env.AddrOfVar(cellName(i))
		env.Store(form.Sel{X: form.Var{Name: cellName(i)}, Field: "val"}, int64(r.Intn(9)-4))
		env.Store(form.Sel{X: form.Var{Name: cellName(i)}, Field: "mark"}, int64(r.Intn(2)))
	}
	for i := range addrs {
		next := int64(0)
		if i+1 < n && r.Intn(4) != 0 {
			next = addrs[i+1]
		}
		env.Store(form.Sel{X: form.Var{Name: cellName(i)}, Field: "next"}, next)
	}
	if r.Intn(6) == 0 {
		return 0
	}
	return addrs[0]
}

func cellName(i int) string { return "$cell" + strconv.Itoa(i) }

// table2Soundness is the Section 4.6 soundness theorem as
// internal/soundness checks it: every concrete state of a seeded
// interpreter run lies inside Bebop's reachable set at the matching
// boolean-program statement. It rebuilds the abstraction from the
// layers (the facade hides the statement origins the check needs) and
// requires the same program text the facade emits.
func table2Soundness(p corpus.Program, seed int64) error {
	norm, err := normalize(p.Source)
	if err != nil {
		return err
	}
	aa := alias.AnalyzeOpts(norm, alias.Options{OpenCallers: !p.GhostAliasing})
	secs, err := cparse.ParsePredFile(p.Preds)
	if err != nil {
		return err
	}
	abs, err := abstract.Abstract(norm, aa, prover.New(), secs, abstractOptions())
	if err != nil {
		return err
	}
	prog, err := load(p)
	if err != nil {
		return err
	}
	facade, err := prog.Abstract(p.Preds, abstractOptions())
	if err != nil {
		return err
	}
	if facade.Text() != bp.Print(abs.BP) {
		return fmt.Errorf("the layers and the facade emit different boolean programs")
	}
	ch, err := bebop.Check(abs.BP, p.Entry)
	if err != nil {
		return err
	}
	checked := 0
	for run := 0; run < concreteRuns; run++ {
		r := subjectRand(seed, p.Name, run)
		env := form.NewEnv()
		args := table2Args(p.Name, r, env)
		var outside []string
		in := &cinterp.Interp{Res: norm, Env: env, Rand: r,
			OnStmt: func(v cinterp.StmtVisit) {
				state := map[string]bool{}
				eval := func(pd abstract.Pred) {
					if val, err := v.Env.EvalFormula(cinterp.RenameFormula(v.Rename, pd.F)); err == nil {
						state[pd.Name] = val
					}
				}
				for _, pd := range abs.GlobalPreds {
					eval(pd)
				}
				for _, pd := range abs.LocalPreds[v.Fn] {
					eval(pd)
				}
				idxs := ch.StmtsWithOrigin(v.Fn, any(v.Stmt))
				if len(idxs) == 0 {
					return
				}
				checked++
				if !ch.StateReachable(v.Fn, idxs[0], state) && len(outside) < 3 {
					outside = append(outside, fmt.Sprintf("%v in %s", state, v.Fn))
				}
			}}
		if _, _, err := in.Run(p.Entry, args); err != nil {
			return fmt.Errorf("concrete run %d: %v", run, err)
		}
		if len(outside) > 0 {
			return fmt.Errorf("concrete run %d leaves Bebop's reachable set: %s", run, strings.Join(outside, "; "))
		}
	}
	if checked == 0 {
		return fmt.Errorf("no concrete state was matched to a boolean-program statement")
	}
	return nil
}

func normalize(src string) (*cnorm.Result, error) {
	parsed, err := cparse.Parse(src)
	if err != nil {
		return nil, err
	}
	info, err := ctype.Check(parsed)
	if err != nil {
		return nil, err
	}
	return cnorm.Normalize(info)
}

// instrumentDriver weaves the locking/IRP specification into a driver
// and normalizes the result, the program SLAM checks.
func instrumentDriver(p corpus.Program) (*cnorm.Result, error) {
	parsed, err := cparse.Parse(p.Source)
	if err != nil {
		return nil, err
	}
	sp, err := spec.Parse(p.Spec)
	if err != nil {
		return nil, err
	}
	inst, err := spec.Instrument(parsed, sp, p.Entry)
	if err != nil {
		return nil, err
	}
	info, err := ctype.Check(inst)
	if err != nil {
		return nil, err
	}
	return cnorm.Normalize(info)
}

// instrumentAll prepares every driver's instrumented program: the
// input-only part of a driver operation.
func instrumentAll(subjects []corpus.Program) error {
	for _, p := range subjects {
		if _, err := instrumentDriver(p); err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
	}
	return nil
}

// driverConcreteRuns interprets the spec-instrumented driver on seeded
// arguments: for a driver Section 6.1 reports verified, no run may
// reach the specification's abort.
func driverConcreteRuns(p corpus.Program, seed int64) error {
	if p.ExpectError {
		return nil
	}
	norm, err := instrumentDriver(p)
	if err != nil {
		return err
	}
	var nparams int
	for _, f := range norm.Prog.Funcs {
		if f.Name == p.Entry {
			nparams = len(f.Params)
		}
	}
	completed := 0
	for run := 0; run < concreteRuns; run++ {
		r := subjectRand(seed, p.Name, run)
		args := make([]int64, nparams)
		for i := range args {
			args[i] = int64(r.Intn(14) - 2)
		}
		in := &cinterp.Interp{Res: norm, Env: form.NewEnv(), Rand: r}
		st, _, err := in.Run(p.Entry, args)
		if err != nil {
			return fmt.Errorf("concrete run %d: %v", run, err)
		}
		if st == cinterp.AssertFailed {
			return fmt.Errorf("concrete run %d with arguments %v reaches the specification's abort", run, args)
		}
		if st == cinterp.Completed {
			completed++
		}
	}
	if completed == 0 {
		return fmt.Errorf("no concrete run completed")
	}
	return nil
}

// selfPeakRSSMB reads this process's peak resident set size.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
