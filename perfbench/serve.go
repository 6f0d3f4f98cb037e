package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/kernels"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/store"
)

// service is an in-process uveserve: a serve.Server over a fresh store
// directory, exposed on a loopback HTTP listener.
type service struct {
	dir    string
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	done   chan struct{}
}

func startService(tmp, name string) (*service, error) {
	dir, err := os.MkdirTemp(tmp, name+"-store-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	// The queue holds the whole cold matrix, which set-up submits at once.
	srv, err := serve.New(serve.Config{Store: st, Workers: workers, QueueLen: 256})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	s := &service{
		dir: dir, srv: srv, hs: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: workers, MaxConnsPerHost: workers,
		}},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

// close stops the listener and waits for it, drains the server and
// removes the store directory.
func (s *service) close() {
	_ = s.hs.Close() // closes the listener and every connection
	<-s.done
	s.client.CloseIdleConnections()
	s.srv.Close()
	os.RemoveAll(s.dir)
}

func spec(cl cell, fidelity string) serve.JobSpec {
	return serve.JobSpec{Kernel: cl.k.ID, Variant: strings.ToLower(cl.v.String()), Size: cl.size, Fidelity: fidelity}
}

// submit runs one job through the in-process API and waits for it.
func (s *service) submit(js serve.JobSpec) error {
	id, err := s.srv.Submit(js)
	if err != nil {
		return err
	}
	if st, _ := s.srv.Wait(context.Background(), id); st.State != serve.StateDone {
		return fmt.Errorf("job %s %s: %s", id, st.State, st.Error)
	}
	return nil
}

// reply is the POST /v1/jobs response.
type reply struct {
	Jobs []struct {
		State     string          `json:"state"`
		FromStore bool            `json:"from_store"`
		Report    json.RawMessage `json:"report"`
	} `json:"jobs"`
}

// roundTrip submits one job over HTTP and waits for the response: what a
// client of the service waits for.
func (s *service) roundTrip(js serve.JobSpec) ([]byte, error) {
	body, err := json.Marshal(js)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Post(s.url+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// decodeReply extracts the job's report from a POST /v1/jobs response, as
// the payload bytes the store holds.
func decodeReply(b []byte) (payload []byte, fromStore bool, err error) {
	var r reply
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, false, err
	}
	if len(r.Jobs) != 1 || r.Jobs[0].State != string(serve.StateDone) {
		return nil, false, fmt.Errorf("job not done: %s", bytes.TrimSpace(b))
	}
	// The response re-indents the embedded report; restore the stored
	// bytes (report.Document.Marshal: two-space indent, trailing newline).
	var compact, stored bytes.Buffer
	if err := json.Compact(&compact, r.Jobs[0].Report); err != nil {
		return nil, false, err
	}
	if err := json.Indent(&stored, compact.Bytes(), "", "  "); err != nil {
		return nil, false, err
	}
	stored.WriteByte('\n')
	return stored.Bytes(), r.Jobs[0].FromStore, nil
}

// sreq is one request of the serve-mixed stream.
type sreq struct {
	cl       cell
	fidelity string
}

func (r sreq) key() string { return r.fidelity + "/" + r.cl.String() }

var fidelities = []string{"cycle", "functional"}

// coldMatrix is the 19 x 3 matrix at -scale 4 on both tiers.
func coldMatrix() []sreq {
	var out []sreq
	for _, f := range fidelities {
		for _, cl := range matrix(4, allVariants) {
			out = append(out, sreq{cl, f})
		}
	}
	return out
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// fillCold starts a service and fills its store with the cold matrix,
// checking every payload against its pinned SHA-256.
func fillCold(cfg config, d *digests, c *checks, cold []sreq) (*service, error) {
	s, err := startService(cfg.tmp, "serve")
	if err != nil {
		return nil, err
	}
	ids := make([]string, len(cold))
	for i, r := range cold {
		if ids[i], err = s.srv.Submit(spec(r.cl, r.fidelity)); err != nil {
			s.close()
			return nil, err
		}
	}
	for i, r := range cold {
		st, _ := s.srv.Wait(context.Background(), ids[i])
		if st.State != serve.StateDone {
			c.fail("cold %s: %s %s", r.key(), st.State, st.Error)
			continue
		}
		d.check(c, r.key(), sha(st.Payload))
	}
	return s, nil
}

// The serve-mixed stream is made of blocks with one fixed composition:
// the cold matrix coldPerBlock times over (store hits) and one new cell
// for every kernel x variant x tier whose grid of smaller sizes holds at
// least maxBlocks sizes, a quarter of them requested twice in a row so the
// two clients often have the same new cell in flight; about one request in
// ten names a new cell. A run serves a fixed number of blocks, at most
// maxBlocks, so every run serves the same number of requests with the
// same mix, and no grid runs out partway through a run.
const (
	coldPerBlock = 3
	maxBlocks    = 96
)

// stream is the seeded request stream both clients draw from, block by
// block. Each combination's new sizes are stratified over its grid: block
// b takes the combination's size from stratum (b + phase) mod maxBlocks,
// with the phases spread evenly over the combinations, so every block
// holds small and large new cells alike and no size repeats in a run.
type stream struct {
	rng    splitmix
	cold   []sreq
	combos []sreq // kernel x variant x tier whose grid can supply every block
	grid   map[string][]int
	phase  []int     // per combination: its stratum in block 0
	frac   []float64 // per combination: its seeded position inside a stratum
	blocks int       // blocks drawn so far
	misses []sreq    // new cells in draw order
}

func newStream(seed uint64, cold []sreq) *stream {
	s := &stream{rng: splitmix{seed}, cold: cold, grid: map[string][]int{}}
	o := &bench.Options{Scale: 4}
	for _, k := range kernels.All {
		top := bench.SizeFor(k, o)
		seen := map[int]bool{}
		for n := 1; n < top; n++ {
			if q := bench.QuantizeSize(k, n); q < top && !seen[q] {
				seen[q] = true
				s.grid[k.ID] = append(s.grid[k.ID], q)
			}
		}
	}
	for _, r := range cold {
		if len(s.grid[r.cl.k.ID]) >= maxBlocks {
			s.combos = append(s.combos, r)
		}
	}
	for _, p := range s.rng.perm(len(s.combos)) {
		s.phase = append(s.phase, p*maxBlocks/len(s.combos))
		s.frac = append(s.frac, s.rng.float())
	}
	return s
}

// block returns the next block's requests in seeded order, or false once
// maxBlocks blocks have been drawn.
func (s *stream) block() ([]sreq, bool) {
	if s.blocks == maxBlocks {
		return nil, false
	}
	b := s.blocks
	s.blocks++
	var units [][]sreq // a cold request, or a new cell with its repeat
	for i := 0; i < coldPerBlock; i++ {
		for _, r := range s.cold {
			units = append(units, []sreq{r})
		}
	}
	twice := s.rng.perm(len(s.combos))
	for i, base := range s.combos {
		sizes := s.grid[base.cl.k.ID]
		stratum := (b + s.phase[i]) % maxBlocks
		size := sizes[int((float64(stratum)+s.frac[i])*float64(len(sizes))/maxBlocks)]
		r := sreq{cell{base.cl.k, base.cl.v, size}, base.fidelity}
		s.misses = append(s.misses, r)
		u := []sreq{r}
		if twice[i] < len(s.combos)/4 {
			u = append(u, r)
		}
		units = append(units, u)
	}
	var out []sreq
	for _, p := range s.rng.perm(len(units)) {
		out = append(out, units[p]...)
	}
	return out, true
}

// runServeMixed drives the service over HTTP with two closed-loop
// clients drawing from one seeded stream; a request is a hit when the
// server answered it from the store.
func runServeMixed(cfg config, c *checks) (map[string]Metric, error) {
	d, err := loadDigests(cfg.workload, cfg.regen)
	if err != nil {
		return nil, err
	}
	cold := coldMatrix()
	svc, setupS, err := medianSetup(5, func() (*service, error) { return fillCold(cfg, d, c, cold) },
		func(s *service) { s.close() })
	if err != nil {
		return nil, err
	}
	defer svc.close()
	if cfg.regen {
		return nil, d.save()
	}
	coldSHA := map[string]string{}
	for _, r := range cold {
		coldSHA[r.key()] = d.want[r.key()]
	}
	str := newStream(cfg.seed, cold)
	var mu sync.Mutex
	served := map[string]string{} // new cell -> payload SHA-256
	pass := func(ps *phaseStats) error {
		reqs, ok := str.block()
		if !ok {
			return fmt.Errorf("request stream exhausted after %d blocks", maxBlocks)
		}
		var wg sync.WaitGroup
		var block latencies
		next := 0
		r0 := svc.srv.Stats().Runner
		t0 := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					mu.Lock()
					if next == len(reqs) {
						mu.Unlock()
						return
					}
					r := reqs[next]
					next++
					mu.Unlock()
					var b, payload []byte
					var hit bool
					var err error
					dt := timeIt(func() { b, err = svc.roundTrip(spec(r.cl, r.fidelity)) })
					if err == nil {
						payload, hit, err = decodeReply(b)
					}
					mu.Lock()
					ps.lat.add(hit, dt)
					block.add(hit, dt)
					switch want, isCold := coldSHA[r.key()]; {
					case err != nil:
						c.fail("%s: %v", r.key(), err)
					case isCold && sha(payload) != want:
						c.fail("%s: payload digest %s, reference %s", r.key(), sha(payload), want)
					case !isCold && served[r.key()] != "" && served[r.key()] != sha(payload):
						c.fail("%s: two requests got different payloads", r.key())
					default:
						if !isCold {
							served[r.key()] = sha(payload)
						}
						c.ok()
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		ps.passes = append(ps.passes, time.Since(t0).Seconds())
		ps.blocks = append(ps.blocks, block)
		ps.endPass()
		r1 := svc.srv.Stats().Runner
		addRunner(&ps.runner, bench.RunnerStats{Submitted: r1.Submitted - r0.Submitted,
			Simulated: r1.Simulated - r0.Simulated, MemoHits: r1.MemoHits - r0.MemoHits})
		return nil
	}
	before := svc.srv.Stats()
	n := min(maxBlocks, passesFor(cfg.seconds, 0.5))
	m, err := measured(cfg, c, n, setupS, pass, func(m map[string]Metric) error {
		return probeLayers(cfg, c, m, matrix(4, allVariants), svc)
	})
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		st := svc.srv.Stats()
		m["serve.simulated"] = Metric{float64(st.Runner.Simulated - before.Runner.Simulated), "count"}
		m["serve.memo_hits"] = Metric{float64(st.Runner.MemoHits - before.Runner.MemoHits), "count"}
		m["store.hits"] = Metric{float64(st.StoreHits - before.StoreHits), "count"}
		m["store.misses"] = Metric{float64(st.StoreMisses - before.StoreMisses), "count"}
	}
	return m, verifyMisses(c, str, served)
}

// verifyMisses recomputes the first few new cells' payloads directly
// (runner, report projection, canonical marshal) and compares them with
// what the service served.
func verifyMisses(c *checks, str *stream, served map[string]string) error {
	n := 0
	for _, r := range str.misses {
		if n == 8 {
			break
		}
		want, ok := served[r.key()]
		if !ok {
			continue // drawn but its request failed (already counted)
		}
		n++
		o := sim.DefaultOptions(r.cl.v)
		if r.fidelity == "functional" {
			o.Fidelity = sim.Functional
		}
		res, err := bench.NewRunner(1).Run(bench.Job{Kernel: r.cl.k, Variant: r.cl.v, Size: r.cl.size, Opts: &o})
		if err != nil {
			c.fail("verify %s: %v", r.key(), err)
			continue
		}
		doc := report.New("uveserve")
		doc.Serve = &report.Serve{Result: report.FromResult(res, o.Fidelity)}
		b, err := doc.Marshal()
		if err != nil {
			return err
		}
		if sha(b) != want {
			c.fail("verify %s: served payload differs from a direct run", r.key())
		} else {
			c.ok()
		}
	}
	return nil
}

// probeService measures the service path on cells already in its store:
// the in-process Submit of a hit, and the HTTP round trip beyond it.
func probeService(c *checks, m map[string]Metric, svc *service, sample []cell) error {
	sp := spans{}
	for round := 0; round < 20; round++ {
		for _, cl := range sample {
			js := spec(cl, "cycle")
			var err error
			sp.time("serve.submit", func() { err = svc.submit(js) })
			if err != nil {
				return err
			}
			var b []byte
			var hit bool
			sp.time("serve.http", func() { b, err = svc.roundTrip(js) })
			if err == nil {
				_, hit, err = decodeReply(b)
			}
			if err != nil || !hit {
				c.fail("service probe %s: hit=%v err=%v", cl, hit, err)
			}
		}
	}
	st := svc.srv.Stats()
	m["serve.submit_us"] = Metric{sp.med("serve.submit", 1e3), "us"}
	m["serve.http_us"] = Metric{sp.med("serve.http", 1e3) - sp.med("serve.submit", 1e3), "us"}
	m["serve.simulated"] = Metric{float64(st.Runner.Simulated), "count"}
	m["serve.memo_hits"] = Metric{float64(st.Runner.MemoHits), "count"}
	m["store.hits"] = Metric{float64(st.StoreHits), "count"}
	m["store.misses"] = Metric{float64(st.StoreMisses), "count"}
	return nil
}
