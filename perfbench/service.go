package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"predabs/internal/corpus"
)

// Service workload settings. Arrivals are open loop: each job is due
// at a time fixed in advance, whatever happened to earlier jobs, and its
// latency runs from that due time to the verdict read. The jobs are
// carried by as many client goroutines as there are CPUs, so a backlog
// shows as generator lateness inside the measured latency.
const (
	// offeredRate is the rate (jobs/s) at which a block's jobs arrive,
	// as a Poisson process.
	offeredRate = 6.0
	// blockJobs is how many jobs of one driver a block offers. The
	// daemon's CPU time is read before and after each block, so it is
	// charged to that driver.
	blockJobs = 8
	// jobTimeout bounds one job from due time to verdict; a job that
	// exceeds it fails.
	jobTimeout = 60 * time.Second
)

// jobSpec is the POST /jobs body.
type jobSpec struct {
	Source   string `json:"source"`
	Spec     string `json:"spec,omitempty"`
	Entry    string `json:"entry,omitempty"`
	MaxIters int    `json:"max_iters,omitempty"`
	Jobs     int    `json:"jobs,omitempty"`
}

// jobStatus is the subset of GET /jobs/{id} the client reads; the
// API omits exit_code when it is 0.
type jobStatus struct {
	State    string `json:"state"`
	ExitCode int    `json:"exit_code"`
	Outcome  string `json:"outcome"`
}

// jobEvent is one NDJSON record of GET /jobs/{id}/events.
type jobEvent struct {
	Seq     uint64 `json:"seq"`
	TS      int64  `json:"ts"`
	Type    string `json:"type"`
	State   string `json:"state"`
	Attempt int    `json:"attempt"`
}

func terminal(state string) bool { return state == "done" || state == "failed" }

// jobRec is one job's client-side record.
type jobRec struct {
	driver   int
	due      time.Time
	lateness time.Duration // start of the POST minus due time
	latency  time.Duration // verdict read minus due time
	admit    time.Duration // POST round trip
	notify   time.Duration // terminal event receipt minus its timestamp
	stale    int           // status reads still non-terminal after the terminal event
	id       string
	outcome  string
	exitCode int
	err      error
	// layers holds the job's service-layer figures, filled by audit.
	layers map[string]float64
}

// daemon is one predabsd process.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	dataDir string
	waitErr chan error
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon starts predabsd with default flags on a fresh data
// directory and waits until it reports ready.
func startDaemon(ctx context.Context, bin, dataDir string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dataDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(dataDir + ".log")
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-data", dataDir, "-addr", addr)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// If the benchmark dies, the daemon is told to shut down too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, dataDir: dataDir, waitErr: make(chan error, 1)}
	go func() {
		d.waitErr <- cmd.Wait()
		logf.Close()
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case err := <-d.waitErr:
			d.waitErr <- err
			return nil, fmt.Errorf("predabsd exited before ready: %v (see %s.log)", err, dataDir)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			d.stop()
			return nil, fmt.Errorf("predabsd not ready after 20s (see %s.log)", dataDir)
		}
	}
}

// usage is what a daemon used over its life, the worker processes it
// reaped included.
type usage struct {
	cpu    time.Duration
	peakMB float64
}

// stop shuts the daemon down with SIGTERM, escalating to SIGKILL, and
// waits for it to exit.
func (d *daemon) stop() usage {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.waitErr:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.waitErr
	}
	ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return usage{}
	}
	return usage{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		peakMB: float64(ru.Maxrss) / 1024,
	}
}

// client drives jobs through the documented HTTP job API.
type client struct {
	http  *http.Client
	base  string
	spans *spanLog
}

func (c *client) do(ctx context.Context, method, path string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

// runJob submits one job at its due time, follows its event stream to
// the terminal state, then reads the verdict.
func (c *client) runJob(ctx context.Context, rec *jobRec, body []byte, opID string) {
	ctx, cancel := context.WithDeadline(ctx, rec.due.Add(jobTimeout))
	defer cancel()
	root := c.spans.begin(opID, "job", 0)
	c.spans.record(span{Op: opID, Name: "client.wait", Parent: root.ID}, rec.due, time.Now())
	start := time.Now()
	rec.lateness = start.Sub(rec.due)

	sp := c.spans.begin(opID, "http.post", root.ID)
	data, code, err := c.do(ctx, http.MethodPost, "/jobs", body)
	rec.admit = sp.end()
	if err != nil || code != http.StatusAccepted {
		rec.err = fmt.Errorf("POST /jobs: %d %v %s", code, err, data)
		return
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &sub); err != nil || sub.ID == "" {
		rec.err = fmt.Errorf("POST /jobs: bad reply %s", data)
		return
	}
	rec.id = sub.ID

	var after uint64
	for done := false; !done; {
		sp := c.spans.begin(opID, "http.events", root.ID)
		data, code, err := c.do(ctx, http.MethodGet, fmt.Sprintf("/jobs/%s/events?after=%d&wait=10s", rec.id, after), nil)
		received := time.Now()
		sp.end()
		if err != nil || code != http.StatusOK {
			rec.err = fmt.Errorf("GET events: %d %v %s", code, err, data)
			return
		}
		evs, err := parseEvents(data)
		if err != nil {
			rec.err = err
			return
		}
		for _, ev := range evs {
			after = ev.Seq
			if ev.Type == "state" && terminal(ev.State) {
				rec.notify = received.Sub(time.Unix(0, ev.TS))
				done = true
			}
		}
	}

	for {
		sp := c.spans.begin(opID, "http.status", root.ID)
		data, code, err := c.do(ctx, http.MethodGet, "/jobs/"+rec.id, nil)
		sp.end()
		if err != nil || code != http.StatusOK {
			rec.err = fmt.Errorf("GET /jobs/%s: %d %v %s", rec.id, code, err, data)
			return
		}
		var st jobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			rec.err = fmt.Errorf("GET /jobs/%s: %v", rec.id, err)
			return
		}
		if terminal(st.State) {
			rec.latency = time.Since(rec.due)
			rec.outcome, rec.exitCode = st.Outcome, st.ExitCode
			root.end()
			return
		}
		// The terminal event is already durable but the status has not
		// caught up: read again.
		rec.stale++
	}
}

func parseEvents(data []byte) ([]jobEvent, error) {
	var evs []jobEvent
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var ev jobEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("event line %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	return evs, sc.Err()
}

// offer runs one job per due time from a pool of clients and waits
// for every verdict. The records are returned in due order.
func offer(ctx context.Context, c *client, clients int, dues []time.Time, drivers []int, bodies [][]byte, tag string) []*jobRec {
	recs := make([]*jobRec, len(dues))
	for i := range dues {
		recs[i] = &jobRec{driver: drivers[i], due: dues[i]}
	}
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(recs) {
					return
				}
				if err := ctx.Err(); err != nil {
					recs[i].err = err
					continue
				}
				if wait := time.Until(recs[i].due); wait > 0 {
					time.Sleep(wait)
				}
				c.runJob(ctx, recs[i], bodies[recs[i].driver], fmt.Sprintf("%s/job%d", tag, i))
			}
		}()
	}
	wg.Wait()
	return recs
}

// poissonDues draws n due times of a Poisson arrival process at rate:
// independent users, whose requests sometimes overlap.
func poissonDues(rng *rand.Rand, start time.Time, n int, rate float64) []time.Time {
	dues := make([]time.Time, n)
	t := 0.0
	for i := range dues {
		dues[i] = start.Add(time.Duration(t * float64(time.Second)))
		t += rng.ExpFloat64() / rate
	}
	return dues
}

func latencies(recs []*jobRec) []float64 {
	var out []float64
	for _, r := range recs {
		if r.err == nil {
			out = append(out, ms(r.latency))
		}
	}
	return out
}

func runService(cfg runConfig) outcome {
	var out outcome
	ctx, cancel := context.WithTimeout(context.Background(), cfg.Duration+90*time.Second)
	defer cancel()
	drivers := corpus.Drivers()
	rng := rand.New(rand.NewSource(cfg.Seed))
	bodies := make([][]byte, len(drivers))
	want := make([]string, len(drivers))
	for i, p := range drivers {
		body, err := json.Marshal(jobSpec{Source: p.Source, Spec: p.Spec, Entry: p.Entry,
			MaxIters: driverMaxIterations, Jobs: 1})
		if err != nil {
			out.problem("%v", err)
			return out
		}
		bodies[i] = body
		want[i] = "verified"
		if p.ExpectError {
			want[i] = "error-found"
		}
	}

	root := filepath.Join(cfg.WorkDir, "service", strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(root)

	// Set-up is a daemon start on a fresh data directory, up to ready.
	// The last of several starts serves the run; each earlier one is
	// stopped once ready, and its CPU time, start to exit, is one
	// set-up sample.
	var setups, setupWalls []float64
	var d *daemon
	for i := 0; i < setupRounds+1; i++ {
		if d != nil {
			setups = append(setups, d.stop().cpu.Seconds())
		}
		start := time.Now()
		var err error
		d, err = startDaemon(ctx, cfg.Predabsd, filepath.Join(root, fmt.Sprintf("data%d", i)))
		if err != nil {
			out.problem("starting predabsd: %v", err)
			out.Attempted, out.Failed = 1, 1
			return out
		}
		setupWalls = append(setupWalls, time.Since(start).Seconds())
	}
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	n := runtime.NumCPU()
	c := &client{base: d.base, http: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: n, MaxIdleConnsPerHost: n}}}

	// Warm-up: one untimed job of each driver, all due at once.
	now := make([]time.Time, len(drivers))
	for i := range now {
		now[i] = time.Now()
	}
	warm := offer(ctx, c, n, now, rng.Perm(len(drivers)), bodies, "warmup")
	c.spans = cfg.Spans

	// The measured phase runs whole rounds until the run's time is up.
	// A round offers one block of each driver in seeded order, and each
	// block's CPU time, read from the daemon, covers its worker
	// processes too, since the daemon reaps each worker before it
	// records the verdict.
	pid := d.cmd.Process.Pid
	daemonCPU := make([]time.Duration, len(drivers))
	workerCPU := make([]time.Duration, len(drivers))
	jobsPerDriver := 0
	var measured []*jobRec
	deadline := time.Now().Add(cfg.Duration)
	perBlock := blockJobs
	if cfg.Short {
		perBlock = 1
	}
	for round := 0; round == 0 || !cfg.Short && time.Now().Before(deadline); round++ {
		for _, i := range rng.Perm(len(drivers)) {
			dv := make([]int, perBlock)
			for k := range dv {
				dv[k] = i
			}
			dues := poissonDues(rng, time.Now().Add(10*time.Millisecond), perBlock, offeredRate)
			self0, kids0, err := treeCPU(pid)
			recs := offer(ctx, c, n, dues, dv, bodies, fmt.Sprintf("round%d/%s", round, drivers[i].Name))
			self1, kids1, err1 := treeCPU(pid)
			if err == nil {
				err = err1
			}
			if err != nil {
				out.problem("reading the daemon's CPU time: %v", err)
			}
			daemonCPU[i] += self1 - self0
			workerCPU[i] += kids1 - kids0
			measured = append(measured, recs...)
		}
		jobsPerDriver += perBlock
	}

	all := append(append([]*jobRec{}, warm...), measured...)
	audit(ctx, c, d.dataDir, all, want, &out)
	diskBytes, files := dirUsage(d.dataDir)
	peak := d.stop().peakMB
	d = nil
	for _, r := range all {
		out.Attempted++
		if r.err != nil || !verdictOK(r, want) {
			out.Failed++
		}
	}

	lat := latencies(measured)
	var late []float64
	for _, r := range measured {
		late = append(late, ms(r.lateness))
	}
	out.note("%d measured jobs in blocks of %d at %.1f jobs/s offered: wall latency p50 %.1f ms, p90 %.1f ms; generator late p50 %.2f ms, p90 %.2f ms, max %.2f ms",
		len(measured), perBlock, offeredRate, quantile(lat, 0.5), quantile(lat, 0.9),
		quantile(late, 0.5), quantile(late, 0.9), quantile(late, 1))

	if cfg.Trace {
		jobs := float64(len(all))
		// Per-job figures are medians over the measured jobs.
		lay := samples{}
		stale := 0
		for _, r := range measured {
			stale += r.stale
			for k, v := range r.layers {
				lay.add(k, v)
			}
		}
		for k, v := range lay.medians() {
			out.setLayer(k, v)
		}
		var daemonSum, workerSum time.Duration
		for i := range drivers {
			daemonSum += daemonCPU[i]
			workerSum += workerCPU[i]
		}
		out.setLayer("server.cpu_ms_per_job", ms(daemonSum)/float64(len(measured)))
		out.setLayer("worker.cpu_ms_per_job", ms(workerSum)/float64(len(measured)))
		out.setLayer("server.disk_bytes_per_job", float64(diskBytes)/jobs)
		out.setLayer("server.files_per_job", float64(files)/jobs)
		out.setLayer("server.stale_status", float64(stale))
		return out
	}
	// A service pass is one job of each driver, at the daemon's mean CPU
	// time per job of that driver.
	var perDriver []float64
	pass := 0.0
	for i, p := range drivers {
		var dl []float64
		for _, r := range measured {
			if r.driver == i && r.err == nil {
				dl = append(dl, ms(r.latency))
			}
		}
		jobs := float64(jobsPerDriver)
		cpu := ms(daemonCPU[i]+workerCPU[i]) / jobs
		perDriver = append(perDriver, cpu)
		pass += cpu / 1000
		out.note("%s: %.1f CPU ms per job (daemon %.1f, worker %.1f) over %d jobs; wall latency median %.1f ms",
			p.Name, cpu, ms(daemonCPU[i])/jobs, ms(workerCPU[i])/jobs, jobsPerDriver, median(dl))
	}
	out.note("set-up wall time: median %.4f s over %d starts", median(setupWalls), len(setupWalls))
	out.set("setup_s", "s", median(setups))
	out.set("peak_rss_mb", "MB", peak)
	out.set("pass_cpu_s", "s", pass)
	out.set("verdict_cpu_ms.geomean", "ms", geomean(perDriver))
	return out
}

// verdictOK reports whether a job's outcome and exit code are its
// driver's answer (exit 0 verified, 1 error found).
func verdictOK(r *jobRec, want []string) bool {
	exit := 0
	if want[r.driver] == "error-found" {
		exit = 1
	}
	return r.outcome == want[r.driver] && r.exitCode == exit
}

// report is the subset of a job's report.json the benchmark reads.
type report struct {
	StageNS    map[string]int64 `json:"stage_ns"`
	Checkpoint *struct {
		CommitNS int64 `json:"commit_ns"`
	} `json:"checkpoint"`
}

// audit checks every job once the run is over: the verdict equals the
// driver's answer, and the event stream read from the start is dense
// and ends in exactly one terminal state. It fills each job's
// service-layer figures from its events and its report.json.
func audit(ctx context.Context, c *client, dataDir string, recs []*jobRec, want []string, out *outcome) {
	for _, r := range recs {
		lay := map[string]float64{}
		r.layers = lay
		if r.err != nil {
			out.problem("job %s (%s): %v", r.id, r.due.Format(time.RFC3339Nano), r.err)
			continue
		}
		if !verdictOK(r, want) {
			out.problem("job %s: outcome %q exit %d, the driver's answer is %q", r.id, r.outcome, r.exitCode, want[r.driver])
		}
		data, code, err := c.do(ctx, http.MethodGet, "/jobs/"+r.id+"/events", nil)
		if err != nil || code != http.StatusOK {
			out.problem("job %s: events: %d %v", r.id, code, err)
			continue
		}
		evs, err := parseEvents(data)
		if err != nil {
			out.problem("job %s: %v", r.id, err)
			continue
		}
		var queued, spawn, end int64
		terminals := 0
		for i, ev := range evs {
			if ev.Seq != uint64(i+1) {
				out.problem("job %s: event %d has sequence %d", r.id, i+1, ev.Seq)
				break
			}
			switch {
			case ev.Type == "state" && ev.State == "queued" && queued == 0:
				queued = ev.TS
			case ev.Type == "spawn" && spawn == 0:
				spawn = ev.TS
			case ev.Type == "state" && terminal(ev.State):
				terminals++
				end = ev.TS
				if i != len(evs)-1 {
					out.problem("job %s: events follow the terminal state", r.id)
				}
			}
		}
		if terminals != 1 {
			out.problem("job %s: %d terminal states in the event stream", r.id, terminals)
		}
		lay["server.admit_ms"] = ms(r.admit)
		lay["server.notify_ms"] = ms(r.notify)
		lay["server.queue_ms"] = float64(spawn-queued) / 1e6
		lay["server.attempt_ms"] = float64(end-spawn) / 1e6
		raw, err := os.ReadFile(filepath.Join(dataDir, "jobs", r.id, "report.json"))
		var rep report
		if err == nil {
			err = json.Unmarshal(raw, &rep)
		}
		if err != nil || rep.Checkpoint == nil {
			out.problem("job %s: report.json: %v", r.id, err)
			continue
		}
		verify := int64(0)
		for _, stage := range []string{"parse", "alias", "abstract", "check", "newton"} {
			verify += rep.StageNS[stage]
		}
		lay["worker.verify_ms"] = float64(verify) / 1e6
		lay["checkpoint.commit_ms"] = float64(rep.Checkpoint.CommitNS) / 1e6
	}
}

// dirUsage totals the bytes and regular files under dir.
func dirUsage(dir string) (bytes int64, files int) {
	filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			if info, err := e.Info(); err == nil {
				bytes += info.Size()
				files++
			}
		}
		return nil
	})
	return bytes, files
}
