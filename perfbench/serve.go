package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"pride/internal/addrmap"
	"pride/internal/dram"
	"pride/internal/rng"
	"pride/internal/server"
)

// serveSize sizes the serve-mix jobs. Each kind is sized so its jobs run for
// comparable host time, so no latency median sits on the boundary between a
// short and a long kind.
type serveSize struct {
	fileRecords     int // records in the set-up trace replay-file jobs replay
	genRecords      int // records a replay-gen job generates
	securityPeriods int
	attack          attackSize // one scheme per job
	ttf             server.TTFSpec
	opSeconds       float64       // nominal wall of one submission per client
	poll            time.Duration // job status polling interval
}

func fullServeSize() serveSize {
	return serveSize{
		fileRecords:     3_400_000,
		genRecords:      2_100_000,
		securityPeriods: 6_300_000,
		attack:          attackSize{patterns: 16, seeds: 4, acts: 175_000},
		ttf:             server.TTFSpec{Scheme: "PrIDE", Banks: 4, TRH: 2000, MaxTREFI: 34_000, Trials: 8},
		opSeconds:       0.3125,
		poll:            5 * time.Millisecond,
	}
}

// submission is one entry of a client's job sequence: a fresh spec of one
// kind, or a repeat of an earlier fresh submission of the same client.
type submission struct {
	kind     string
	spec     server.Spec
	repeatOf int // index into the client's sequence; -1 for a fresh spec
}

// mixCycle is the share of each kind in a client's sequence: one of each.
// No record of how pride-serve is used exists to take other shares from.
var mixCycle = serveKinds

// repeatEvery makes every fourth submission repeat an earlier spec, so
// cache-hit reads run beside fresh result writes.
const repeatEvery = 4

// plan builds client c's sequence of n submissions from the workload seed.
// Fresh submissions and repeats each take their kinds from mixCycle in a
// seeded order per cycle, so every seed submits each kind in the same share.
// A repeat picks a seeded earlier fresh submission of its kind from the same
// client, which the closed loop has already seen done, so it must come back
// from the cache. Every fresh spec gets its own seed, so no two fresh specs
// share a result.
func plan(seed uint64, c, n int, sz serveSize, tracePath string) []submission {
	r := rng.Derived(seed, uint64(c))
	var (
		out            []submission
		fresh          = map[string][]int{}
		forder, rorder []int
	)
	for i := 0; i < n; i++ {
		if i%repeatEvery == repeatEvery-1 {
			if len(rorder) == 0 {
				rorder = r.Perm(len(mixCycle))
			}
			// The first kind of the cycle that has been submitted fresh.
			for k, idx := range rorder {
				if earlier := fresh[mixCycle[idx]]; len(earlier) > 0 {
					j := earlier[r.Intn(len(earlier))]
					out = append(out, submission{kind: out[j].kind, spec: out[j].spec, repeatOf: j})
					rorder = append(rorder[:k:k], rorder[k+1:]...)
					break
				}
			}
			continue
		}
		if len(forder) == 0 {
			forder = r.Perm(len(mixCycle))
		}
		kind := mixCycle[forder[0]]
		forder = forder[1:]
		specSeed := rng.DeriveSeed(seed, uint64(c)<<32|uint64(i))
		fresh[kind] = append(fresh[kind], len(out))
		out = append(out, submission{kind: kind, spec: serveSpec(kind, specSeed, sz, tracePath), repeatOf: -1})
	}
	return out
}

// servePlans builds every client's sequence for e's seed and run length.
func servePlans(e *env, tracePath string) [][]submission {
	n := opCount(e.seconds, e.size.serve.opSeconds)
	plans := make([][]submission, workers)
	for c := range plans {
		plans[c] = plan(e.seed, c, n, e.size.serve, tracePath)
	}
	return plans
}

func serveSpec(kind string, seed uint64, sz serveSize, tracePath string) server.Spec {
	s := server.Spec{Kind: kind, Seed: seed}
	switch kind {
	case "security":
		s.Security = &server.SecuritySpec{Periods: sz.securityPeriods}
	case "attack":
		a := sz.attack
		s.Attack = &server.AttackSpec{Scheme: "PrIDE", ACTs: a.acts, Patterns: a.patterns, Seeds: a.seeds}
	case "ttfsim":
		ttf := sz.ttf
		s.TTF = &ttf
	case "replay-gen":
		s.Kind = "replay"
		s.Replay = &server.ReplaySpec{Workload: replayGenerator, Mapping: addrmap.DefaultDDR5().String(),
			ACTs: sz.genRecords, Scheme: "PrIDE", TRH: 1000}
	case "replay-file":
		s.Kind = "replay"
		s.Replay = &server.ReplaySpec{TracePath: tracePath, Scheme: "PrIDE", TRH: 1000}
	}
	return s
}

// simulatedACTs is the demand ACT count a fresh job of the kind simulates:
// ttfsim jobs are sized so no trial fails before the horizon.
func (sz serveSize) simulatedACTs(kind string) (acts, records float64) {
	w := float64(dram.DDR5().ACTsPerTREFI())
	switch kind {
	case "security":
		return float64(sz.securityPeriods) * w, 0
	case "attack":
		return float64((sz.attack.patterns + 1) * sz.attack.seeds * sz.attack.acts), 0
	case "ttfsim":
		return float64(sz.ttf.Trials*sz.ttf.Banks*sz.ttf.MaxTREFI) * w, 0
	case "replay-gen":
		return float64(sz.genRecords), float64(sz.genRecords)
	default:
		return float64(sz.fileRecords), float64(sz.fileRecords)
	}
}

// jobView is the part of the daemon's job JSON the client reads.
type jobView struct {
	ID       string          `json:"id"`
	State    string          `json:"state"`
	Attempts int             `json:"attempts"`
	Cached   bool            `json:"cached"`
	Error    string          `json:"error"`
	Result   json.RawMessage `json:"result"`
}

// outcome is what the client saw of one submission.
type outcome struct {
	sub       submission
	err       error         // refused, failed or unreachable
	submit    time.Duration // POST until the 200/202 response
	job       time.Duration // POST until the first poll that sees done
	queueWait time.Duration // response until the first poll past queued
	run       time.Duration // first poll past queued until done
	start     time.Time
	done      time.Time
	view      jobView
}

// daemon is one running pride-serve.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	logs chan struct{} // closed once stderr is drained
}

// startDaemon starts pride-serve on a free port with default flags and waits
// until /readyz answers 200.
func startDaemon(ctx context.Context, bin, dataDir string) (*daemon, error) {
	cmd := exec.CommandContext(ctx, bin, "-addr", "127.0.0.1:0", "-data", dataDir)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, logs: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.logs)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "pride-serve listening on "); ok {
				addr <- strings.Fields(rest)[0]
			}
		}
		close(addr)
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			d.stop()
			return nil, fmt.Errorf("pride-serve exited before listening")
		}
		d.addr = "http://" + a
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("pride-serve did not listen within 30s")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(d.addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("pride-serve not ready within 30s")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM and waits for the daemon to exit. It returns the
// daemon's peak RSS and an error unless it drained cleanly (exit 0).
func (d *daemon) stop() (maxRSSMB float64, err error) {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	<-d.logs
	err = d.cmd.Wait()
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		maxRSSMB = float64(ru.Maxrss) / 1024
	}
	if err != nil {
		err = fmt.Errorf("pride-serve did not drain cleanly: %v", err)
	}
	return maxRSSMB, err
}

// client is one closed-loop connection to a daemon.
type client struct {
	base string
	http *http.Client
	poll time.Duration
}

func newClient(base string, poll time.Duration) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: 60 * time.Second}, poll: poll}
}

// do sends req and decodes the job it answers with. A status other than
// 200 or 202 is an error.
func (c *client) do(req *http.Request) (jobView, error) {
	resp, err := c.http.Do(req)
	if err != nil {
		return jobView{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return jobView{}, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return jobView{}, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var v jobView
	err = json.Unmarshal(body, &v)
	return v, err
}

// run submits one spec and polls until the job is done or failed.
func (c *client) run(ctx context.Context, sub submission) outcome {
	o := outcome{sub: sub}
	body, err := json.Marshal(sub.spec)
	if err != nil {
		o.err = err
		return o
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	o.start = time.Now()
	v, err := c.do(req)
	o.submit = time.Since(o.start)
	if err != nil {
		o.err = fmt.Errorf("submit %s: %v", sub.kind, err)
		return o
	}
	responded := o.start.Add(o.submit)
	id := v.ID
	var running time.Time
	for v.State == server.StateQueued || v.State == server.StateRunning {
		time.Sleep(c.poll)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id, nil)
		if err != nil {
			o.err = err
			return o
		}
		if v, err = c.do(req); err != nil {
			o.err = fmt.Errorf("poll %s: %v", id, err)
			return o
		}
		if running.IsZero() && v.State != server.StateQueued {
			running = time.Now()
		}
	}
	o.done = time.Now()
	o.job = o.done.Sub(o.start)
	o.view = v
	if !running.IsZero() {
		o.queueWait = running.Sub(responded)
		o.run = o.done.Sub(running)
	}
	if v.State != server.StateDone {
		o.err = fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error)
	}
	return o
}

// mix runs every client's sequence against base, one goroutine per client,
// and returns the outcomes per client in sequence order.
func mix(ctx context.Context, e *env, base string, plans [][]submission) [][]outcome {
	out := make([][]outcome, len(plans))
	start := time.Now()
	var wg sync.WaitGroup
	for c := range plans {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(base, e.size.serve.poll)
			defer cl.http.CloseIdleConnections()
			for _, sub := range plans[c] {
				if e.overBudget(start) {
					break
				}
				out[c] = append(out[c], cl.run(ctx, sub))
			}
		}(c)
	}
	wg.Wait()
	return out
}

// expectedResults computes every fresh spec's result through an in-process
// server.Server on its HTTP handler, one campaign worker per job, so the
// daemon's results are also checked for worker-count invariance.
func expectedResults(ctx context.Context, dataDir string, plans [][]submission) (map[string]json.RawMessage, error) {
	srv, err := server.New(server.Config{DataDir: dataDir, JobWorkers: workers, CampaignWorkers: 1})
	if err != nil {
		return nil, err
	}
	srv.Start()
	defer srv.Drain()
	h := srv.Handler()
	call := func(method, path string, body []byte) (jobView, error) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(method, path, bytes.NewReader(body)).WithContext(ctx)
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK && rec.Code != http.StatusAccepted {
			return jobView{}, fmt.Errorf("reference %s %s: HTTP %d: %s", method, path, rec.Code, rec.Body.String())
		}
		var v jobView
		err := json.Unmarshal(rec.Body.Bytes(), &v)
		return v, err
	}
	var specs [][]byte
	for _, p := range plans {
		for _, sub := range p {
			if sub.repeatOf < 0 {
				b, err := json.Marshal(sub.spec)
				if err != nil {
					return nil, err
				}
				specs = append(specs, b)
			}
		}
	}
	results := make([]json.RawMessage, len(specs))
	errs := make([]error, len(specs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				v, err := call(http.MethodPost, "/v1/jobs", specs[i])
				for err == nil && (v.State == server.StateQueued || v.State == server.StateRunning) {
					time.Sleep(time.Millisecond)
					v, err = call(http.MethodGet, "/v1/jobs/"+v.ID, nil)
				}
				if err == nil && v.State != server.StateDone {
					err = fmt.Errorf("reference job ended %s: %s", v.State, v.Error)
				}
				results[i], errs[i] = v.Result, err
			}
		}()
	}
	for i := range specs {
		next <- i
	}
	close(next)
	wg.Wait()
	want := map[string]json.RawMessage{}
	for i, b := range specs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		want[string(b)] = results[i]
	}
	return want, nil
}

// serveExpected is one line of a serve-mix expected output: the digest of
// a fresh submission's spec and of the result its job returned.
type serveExpected struct{ spec, result string }

// specKey digests a spec with its trace path reduced to the file name, so
// the key does not depend on where the checkout is.
func specKey(s server.Spec) string {
	if s.Replay != nil && s.Replay.TracePath != "" {
		r := *s.Replay
		r.TracePath = filepath.Base(r.TracePath)
		s.Replay = &r
	}
	b, _ := json.Marshal(s)
	return digest(b)[:16]
}

const serveExpectedLine = "c=%d i=%d kind=%s spec=%s result=%s\n"

// formatServeExpected writes the expected output of plans, whose fresh
// results are in want: one line per fresh submission, in plan order.
func formatServeExpected(plans [][]submission, want map[string]json.RawMessage) string {
	var b strings.Builder
	for c, p := range plans {
		for i, sub := range p {
			if sub.repeatOf >= 0 {
				continue
			}
			spec, _ := json.Marshal(sub.spec)
			fmt.Fprintf(&b, serveExpectedLine, c, i, sub.kind, specKey(sub.spec), digest(want[string(spec)]))
		}
	}
	return b.String()
}

func parseServeExpected(text string) (map[[2]int]serveExpected, error) {
	out := map[[2]int]serveExpected{}
	for _, line := range strings.SplitAfter(text, "\n") {
		if line == "" {
			continue
		}
		var c, i int
		var kind string
		var x serveExpected
		if _, err := fmt.Sscanf(line, serveExpectedLine, &c, &i, &kind, &x.spec, &x.result); err != nil {
			return nil, fmt.Errorf("expected output line %q: %v", line, err)
		}
		out[[2]int{c, i}] = x
	}
	return out, nil
}

// serveExpect writes the seed's replay-file trace and returns the expected
// output of its plans, each fresh result computed by an in-process
// server.Server.
func serveExpect(ctx context.Context, e *env) (string, error) {
	tracePath, err := filepath.Abs(filepath.Join(e.work, "serve.trace"))
	if err != nil {
		return "", err
	}
	if _, _, err := writeTrace(tracePath, e.size.serve.fileRecords, e.seed); err != nil {
		return "", err
	}
	plans := servePlans(e, tracePath)
	want, err := expectedResults(ctx, filepath.Join(e.work, "reference"), plans)
	if err != nil {
		return "", err
	}
	return formatServeExpected(plans, want), nil
}

// checkOutcomes counts every submission as one operation: it fails if it
// was refused or did not end done, if a fresh result differs from the
// committed expected output or from the library's result, or if a repeat is
// not a cache hit with byte-identical bytes.
func checkOutcomes(e *env, t *tally, outs [][]outcome, want map[string]json.RawMessage, golden map[[2]int]serveExpected) {
	compared, fresh := 0, 0
	for c, seq := range outs {
		for i, o := range seq {
			g, ok := golden[[2]int{c, i}]
			if o.sub.repeatOf < 0 {
				fresh++
				if ok {
					compared++
				}
			}
			t.op(checkOutcome(seq, o, want, g, ok))
			if o.err != nil {
				fmt.Fprintf(e.out, "# client %d submission %d (%s)\n", c, i, o.sub.kind)
			}
		}
	}
	fmt.Fprintf(e.out, "# %d of %d fresh results compared with the committed expected output\n", compared, fresh)
}

func checkOutcome(seq []outcome, o outcome, want map[string]json.RawMessage, golden serveExpected, haveGolden bool) error {
	if o.err != nil {
		return o.err
	}
	if o.sub.repeatOf >= 0 {
		first := seq[o.sub.repeatOf]
		if !o.view.Cached {
			return fmt.Errorf("%s repeat of job %s was not served from the cache", o.sub.kind, first.view.ID)
		}
		if !bytes.Equal(o.view.Result, first.view.Result) {
			return fmt.Errorf("%s repeat of job %s: cached result differs from the first result", o.sub.kind, first.view.ID)
		}
		return nil
	}
	if haveGolden {
		if key := specKey(o.sub.spec); key != golden.spec {
			return fmt.Errorf("%s job %s: spec %s, the committed expected output has %s", o.sub.kind, o.view.ID, key, golden.spec)
		}
		if d := digest(o.view.Result); d != golden.result {
			return fmt.Errorf("%s job %s: result %.200s (sha256 %s) differs from the committed expected output (sha256 %s)",
				o.sub.kind, o.view.ID, o.view.Result, d, golden.result)
		}
	}
	spec, err := json.Marshal(o.sub.spec)
	if err != nil {
		return err
	}
	if exp := want[string(spec)]; !bytes.Equal(o.view.Result, exp) {
		return fmt.Errorf("%s job %s: result %.200s, the library gives %.200s", o.sub.kind, o.view.ID, o.view.Result, exp)
	}
	return nil
}

// serveRun is one pass of the mix against a fresh daemon.
type serveRun struct {
	outs   [][]outcome
	window float64 // first submit until last done
	rssMB  float64
	vars   map[string]float64 // the daemon's pride.campaigns "serve" counters
	err    error              // /debug/vars unreadable, or no clean drain on SIGTERM
}

// runMix runs the mix against d, reads its counters and stops it.
func runMix(ctx context.Context, e *env, d *daemon, plans [][]submission) serveRun {
	outs := mix(ctx, e, d.addr, plans)
	var first, last time.Time
	for _, seq := range outs {
		for _, o := range seq {
			if !o.start.IsZero() && (first.IsZero() || o.start.Before(first)) {
				first = o.start
			}
			if o.done.After(last) {
				last = o.done
			}
		}
	}
	vars, verr := daemonCounters(d.addr)
	rss, serr := d.stop()
	return serveRun{outs: outs, window: last.Sub(first).Seconds(), rssMB: rss, vars: vars, err: errors.Join(verr, serr)}
}

// warmUp runs one small job of each kind on d before the measured mix, so
// the mix does not time the daemon's first allocations and code paths. The
// warm-up specs take their seeds from a stream the plans never use, so they
// share no result with the mix.
func warmUp(ctx context.Context, d *daemon, tracePath string, seed uint64) error {
	cl := newClient(d.addr, time.Millisecond)
	defer cl.http.CloseIdleConnections()
	for k, kind := range serveKinds {
		spec := serveSpec(kind, rng.DeriveSeed(seed, 1<<63|uint64(k)), smallSizes().serve, tracePath)
		if o := cl.run(ctx, submission{kind: kind, spec: spec, repeatOf: -1}); o.err != nil {
			return o.err
		}
	}
	return nil
}

// daemonCounters reads the daemon's job-lifecycle counters from /debug/vars.
func daemonCounters(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var vars struct {
		Campaigns map[string]map[string]any `json:"pride.campaigns"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return nil, fmt.Errorf("/debug/vars: %v", err)
	}
	out := map[string]float64{}
	for k, v := range vars.Campaigns["serve"] {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

func runServeMix(ctx context.Context, e *env, traced bool) (result, error) {
	sz := e.size.serve
	tracePath, err := filepath.Abs(filepath.Join(e.work, "serve.trace"))
	if err != nil {
		return result{}, err
	}
	// Set-up: write the replay-file trace and start a daemon on a fresh data
	// directory until /readyz answers. Each set-up's daemon idles until the
	// set-ups are done, so stopping one is never timed; the last is measured.
	var daemons []*daemon
	defer func() {
		for _, d := range daemons {
			_, _ = d.stop()
		}
	}()
	st, err := setupTraces(e, tracePath, sz.fileRecords, func() error {
		d, err := startDaemon(ctx, e.binary("pride-serve"), filepath.Join(e.work, fmt.Sprintf("data-%d", len(daemons))))
		if err == nil {
			daemons = append(daemons, d)
		}
		return err
	})
	if err != nil {
		return result{}, err
	}
	for len(daemons) > 1 {
		d := daemons[0]
		daemons = daemons[1:]
		if _, err := d.stop(); err != nil {
			return result{}, fmt.Errorf("set-up: %v", err)
		}
	}
	plans := servePlans(e, tracePath)
	fmt.Fprintf(e.out, "# serve-mix: %d clients x %d submissions; set-up median of %d\n", workers, len(plans[0]), e.size.setups)

	d := daemons[0]
	if err := warmUp(ctx, d, tracePath, e.seed); err != nil {
		return result{}, fmt.Errorf("warm-up: %v", err)
	}
	daemons = nil // runMix stops it
	m := newMetrics(traced)
	t := &tally{out: e.out}
	settle()
	r := runMix(ctx, e, d, plans)
	t.op(r.err)
	want, err := expectedResults(ctx, filepath.Join(e.work, "reference"), plans)
	if err != nil {
		return result{}, fmt.Errorf("library output: %v", err)
	}
	text, ok, err := e.committed("serve-mix")
	if err != nil {
		return result{}, err
	}
	e.noteCommitted("serve-mix", ok)
	golden, err := parseServeExpected(text)
	if err != nil {
		return result{}, err
	}
	checkOutcomes(e, t, r.outs, want, golden)
	if traced {
		setServeLayers(m, t, r)
	} else {
		m.set("setup_s", st.wall, fmt.Sprintf("median of %d (trace write + daemon start until /readyz 200)", e.size.setups))
		setServeMetrics(m, sz, r)
	}
	m.printNotes(e.out)
	return m.result(t)
}

// submitsByKind returns the submit times in ms of the submissions that
// succeeded, fresh and repeats together, by kind.
func submitsByKind(r serveRun) map[string][]float64 {
	out := map[string][]float64{}
	for _, seq := range r.outs {
		for _, o := range seq {
			if o.err == nil {
				out[o.sub.kind] = append(out[o.sub.kind], o.submit.Seconds()*1000)
			}
		}
	}
	return out
}

// kindMedianMean is the mean over the kinds of each kind's median, so each
// kind counts once whatever its share of the samples. It also lists the
// medians.
func kindMedianMean(byKind map[string][]float64) (float64, string) {
	sum, n := 0.0, 0
	var parts []string
	for _, k := range serveKinds {
		if len(byKind[k]) == 0 {
			continue
		}
		med := median(byKind[k])
		sum += med
		n++
		parts = append(parts, fmt.Sprintf("%s %.3g", k, med))
	}
	return sum / float64(n), strings.Join(parts, ", ")
}

func setServeMetrics(m *metrics, sz serveSize, r serveRun) {
	var submits, jobs []float64
	var acts, records float64
	for _, seq := range r.outs {
		for _, o := range seq {
			if o.err != nil {
				continue
			}
			submits = append(submits, o.submit.Seconds()*1000)
			jobs = append(jobs, o.job.Seconds())
			if o.sub.repeatOf < 0 {
				a, rec := sz.simulatedACTs(o.sub.kind)
				acts += a
				records += rec
			}
		}
	}
	ts, tj := tail(submits), tail(jobs)
	m.set("records_per_s", records/r.window, "trace records replayed by fresh replay jobs per wall second")
	m.set("sim_acts_per_s", acts/r.window, "demand ACTs simulated by fresh jobs per wall second")
	m.set("jobs_per_s", float64(len(jobs))/r.window, fmt.Sprintf("%d jobs done in %.3fs, first submit to last done", len(jobs), r.window))
	mean, parts := kindMedianMean(submitsByKind(r))
	m.set("submit_p50_ms", mean, "POST /v1/jobs until the response: mean of the per-kind medians ("+parts+" ms)")
	m.set("submit_tail_ms", ts.value, "POST /v1/jobs until the response, "+ts.String())
	m.set("job_p50_s", median(jobs), fmt.Sprintf("submit until the first poll that sees done, median of %d", len(jobs)))
	m.set("job_tail_s", tj.value, "submit until the first poll that sees done, "+tj.String())
	m.set("peak_rss_mb", r.rssMB, "maxrss of the daemon")
}

// setServeLayers fills the server layer metrics from the client's
// observations of a pass and checks the daemon's own cache-hit counter
// against what the client saw.
func setServeLayers(m *metrics, t *tally, traced serveRun) {
	var hit, miss, wait []float64
	runs := map[string][]float64{}
	attempts, fresh, cached, total := 0.0, 0.0, 0.0, 0.0
	for _, seq := range traced.outs {
		for _, o := range seq {
			total++
			if o.err != nil {
				continue
			}
			if o.view.Cached {
				cached++
				hit = append(hit, o.submit.Seconds()*1000)
				continue
			}
			miss = append(miss, o.submit.Seconds()*1000)
			wait = append(wait, o.queueWait.Seconds())
			runs[o.sub.kind] = append(runs[o.sub.kind], o.run.Seconds())
			attempts += float64(o.view.Attempts)
			fresh++
		}
	}
	m.set("traced_wall_s", traced.window, "mix pass, first submit to last done")
	m.set("tracing_overhead_s", 0, "no tracing is added: the spans come from the polls every pass makes, and the daemon is not traced")
	m.set("server.submit_hit_p50_ms", median(hit), fmt.Sprintf("%d cache-hit submissions", len(hit)))
	m.set("server.submit_miss_p50_ms", median(miss), fmt.Sprintf("%d fresh submissions", len(miss)))
	m.set("server.queue_wait_p50_s", median(wait), "response until the first poll past queued")
	submits := submitsByKind(traced)
	for _, k := range serveKinds {
		m.set("server.submit_p50_ms."+k, median(submits[k]), fmt.Sprintf("POST until the response, fresh and repeats, median of %d", len(submits[k])))
		m.set("server.run_s."+k, median(runs[k]), fmt.Sprintf("first poll past queued until done, median of %d", len(runs[k])))
	}
	m.set("server.cache_hit_ratio", cached/total, fmt.Sprintf("%.0f of %.0f submissions", cached, total))
	m.set("server.attempts_per_job", attempts/fresh, "mean attempts of fresh jobs")
	if got := traced.vars["cache_hits"]; got != cached {
		t.op(fmt.Errorf("/debug/vars cache_hits=%v, client saw %v cached responses", got, cached))
	} else {
		t.op(nil)
	}
}
