package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/cpu"
	"repro/internal/descriptor"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/funcsim"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/wire"
)

// The per-layer probes time calls into each layer's public functions from
// outside, over a seeded sample of the workload's own cells: four kernels
// on all three variants at the workload's size.

// spans collects per-layer durations of the traced run.
type spans map[string][]float64

func (s spans) time(layer string, f func()) {
	s[layer] = append(s[layer], float64(timeIt(f).Nanoseconds()))
}

// med returns the layer's median duration in the given unit (ns per unit).
func (s spans) med(layer string, unit float64) float64 { return median(s[layer]) / unit }

// machine is one assembled cycle-tier machine, mirroring sim.RunBuilt.
type machine struct {
	h    *mem.Hierarchy
	inst *kernels.Instance
	eng  *engine.Engine
	core *cpu.Core
	inj  *fault.Injector
}

// assemble builds the cell's program and the Table I machine for it,
// recording kernels.build and sim.assemble spans.
func assemble(sp spans, cl cell, plan *fault.Plan) (*machine, error) {
	o := sim.DefaultOptions(cl.v)
	if plan != nil {
		o.Core.MaxCycles = 100_000_000
	}
	m := &machine{}
	var asm time.Duration
	asm += timeIt(func() { m.h = mem.NewHierarchy(o.Hier) })
	sp.time("kernels.build", func() { m.inst = cl.k.Build(m.h, cl.v, cl.size) })
	if m.inst.Err != nil {
		return nil, fmt.Errorf("build %s: %w", cl, m.inst.Err)
	}
	asm += timeIt(func() {
		if cl.v == kernels.UVE {
			m.eng = engine.New(o.Eng, m.h)
		}
		m.core = cpu.New(o.Core, m.inst.Prog, m.h, m.eng)
	})
	sp["sim.assemble"] = append(sp["sim.assemble"], float64(asm.Nanoseconds()))
	if plan != nil {
		m.inj = fault.NewInjector(*plan)
		m.h.TLB.Inject = m.inj.PageFault
		m.h.DRAM.Inject = m.inj.DRAMDelay
		if m.eng != nil {
			m.eng.SetInjector(m.inj)
		}
	}
	for r, val := range m.inst.IntArgs {
		m.core.SetIntReg(r, val)
	}
	for r, a := range m.inst.FPArgs {
		m.core.SetFPReg(r, a.W, a.V)
	}
	return m, nil
}

// run executes the core, converting a watchdog abort into an error.
func (m *machine) run() (cycles int64, err error) {
	defer func() {
		if p := recover(); p != nil {
			wd, ok := p.(*cpu.WatchdogError)
			if !ok {
				panic(p)
			}
			err = wd
		}
	}()
	return m.core.Run(), nil
}

// result projects the finished machine onto a sim.Result, as sim.Run does.
func (m *machine) result(cl cell, cycles int64) *sim.Result {
	r := &sim.Result{
		Variant: cl.v, Kernel: cl.k.ID, Size: cl.size, Cycles: cycles,
		Committed: m.core.Stats.Committed, Core: m.core.Stats,
		DRAM: m.h.DRAM.Stats, L1: m.h.L1D.Stats, L2: m.h.L2.Stats,
		BusUtil: m.h.DRAM.Utilization(cycles),
	}
	if m.eng != nil {
		r.Eng = m.eng.Stats
	}
	return r
}

// allocs measures f's heap allocations (count and bytes) and duration.
func allocs(f func()) (n, bytes uint64, d time.Duration) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	d = timeIt(f)
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc, d
}

// probeSample draws four kernels (seeded) and keeps their cells.
func probeSample(seed uint64, cells []cell) []cell {
	rng := &splitmix{seed ^ 0x5eed}
	pick := map[string]bool{}
	for _, i := range rng.perm(len(kernels.All))[:4] {
		pick[kernels.All[i].ID] = true
	}
	var out []cell
	seen := map[string]bool{}
	for _, cl := range cells {
		if pick[cl.k.ID] && !seen[cl.k.ID] {
			seen[cl.k.ID] = true
			for _, v := range allVariants {
				out = append(out, cell{cl.k, v, cl.size})
			}
		}
	}
	return out
}

// probeLayers runs every per-layer probe and fills m. svc is the
// workload's live service (serve-mixed) or nil, in which case the service
// probe starts its own over the sample.
func probeLayers(cfg config, c *checks, m map[string]Metric, cells []cell, svc *service) error {
	sample := probeSample(cfg.seed, cells)
	sp := spans{}
	type perVar struct{ ns, allocs, cycles float64 }
	run := map[kernels.Variant]*perVar{}
	var bytesAlloc, cyclesAll float64
	var counts struct {
		cycles, committed, renamed, squashed, lineReqs, regens, l1, l2, dram uint64
	}
	dir, err := os.MkdirTemp(cfg.tmp, "probe-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}

	var injected fault.Stats
	var trips int
	var faultedNS, faultedCycles float64
	var funcNS, funcAllocs, funcInsts float64
	for _, cl := range sample {
		mc, err := assemble(sp, cl, nil)
		if err != nil {
			c.fail("probe %s: %v", cl, err)
			continue
		}
		sp.time("lint.analyze", func() { mc.inst.Relint(mc.inst.Prog) })
		var cycles int64
		var runErr error
		na, nb, d := allocs(func() { cycles, runErr = mc.run() })
		if runErr != nil {
			c.fail("probe %s: %v", cl, runErr)
			continue
		}
		pv := run[cl.v]
		if pv == nil {
			pv = &perVar{}
			run[cl.v] = pv
		}
		pv.ns += float64(d.Nanoseconds())
		pv.allocs += float64(na)
		pv.cycles += float64(cycles)
		bytesAlloc += float64(nb)
		cyclesAll += float64(cycles)
		var chkErr error
		sp.time("sim.check", func() { chkErr = mc.inst.Check() })
		if chkErr != nil {
			c.fail("probe %s: output check: %v", cl, chkErr)
		} else {
			c.ok()
		}
		s := mc.core.Stats
		counts.cycles += uint64(cycles)
		counts.committed += s.Committed
		counts.renamed += s.Renamed
		counts.squashed += s.Squashed
		if mc.eng != nil {
			counts.lineReqs += mc.eng.Stats.LineRequests
			counts.regens += mc.eng.Stats.Regenerations
		}
		counts.l1 += mc.h.L1D.Stats.Misses
		counts.l2 += mc.h.L2.Stats.Misses
		counts.dram += mc.h.DRAM.Stats.ReadBytes + mc.h.DRAM.Stats.WriteBytes

		// Service path layers over the same built program and result.
		job := bench.Job{Kernel: cl.k, Variant: cl.v, Size: cl.size}
		var key wire.Hash
		sp.time("bench.fingerprint", func() { key, err = bench.FingerprintJob(job) })
		if err != nil {
			return err
		}
		sp.time("wire.encode", func() { _, err = wire.EncodeUnit(kernels.UnitOf(mc.inst, mc.h.Mem.Extents())) })
		if err != nil {
			return err
		}
		o := sim.DefaultOptions(cl.v)
		sp.time("wire.hash_config", func() { _, err = wire.HashConfig("perfbench.options", o) })
		if err != nil {
			return err
		}
		var payload []byte
		sp.time("report.marshal", func() {
			doc := report.New("uveserve")
			doc.Serve = &report.Serve{Result: report.FromResult(mc.result(cl, cycles), sim.Cycle)}
			payload, err = doc.Marshal()
		})
		if err != nil {
			return err
		}
		sp.time("store.put", func() { err = st.Put(key, payload) })
		if err != nil {
			return err
		}
		var got []byte
		var hit bool
		sp.time("store.get", func() { got, hit, err = st.Get(key) })
		if err != nil || !hit || !bytes.Equal(got, payload) {
			c.fail("probe %s: store round trip (hit=%v, err=%v)", cl, hit, err)
		}

		// Functional tier on a fresh copy of the instance.
		h := mem.NewHierarchy(o.Hier)
		inst := cl.k.Build(h, cl.v, cl.size)
		fm := funcsim.New(funcsim.Config{VecBytes: o.Core.VecBytes}, inst.Prog, h.Mem)
		for r, val := range inst.IntArgs {
			fm.SetIntReg(r, val)
		}
		for r, a := range inst.FPArgs {
			fm.SetFPReg(r, a.W, a.V)
		}
		na, _, d = allocs(func() { err = fm.Run() })
		if err == nil {
			err = inst.Check()
		}
		if err != nil {
			c.fail("probe %s functional: %v", cl, err)
		} else {
			c.ok()
		}
		funcNS += float64(d.Nanoseconds())
		funcAllocs += float64(na)
		funcInsts += float64(fm.Committed())

		// The cycle loop under fault injection, except on the cells that
		// livelock under it at this commit.
		if cl.v == kernels.NEON || knownWatchdog[cl.k.ID+"/"+cl.v.String()] {
			continue
		}
		plan := fault.DefaultPlan(probeFaultSeed)
		fmc, err := assemble(spans{}, cl, &plan)
		if err != nil {
			return err
		}
		var fc int64
		d = timeIt(func() { fc, err = fmc.run() })
		if err != nil {
			if _, ok := err.(*cpu.WatchdogError); ok {
				trips++
			}
			c.fail("probe %s faulted: %v", cl, err)
			continue
		}
		if err := fmc.inst.Check(); err != nil {
			c.fail("probe %s faulted: output check: %v", cl, err)
		} else {
			c.ok()
		}
		faultedNS += float64(d.Nanoseconds())
		faultedCycles += float64(fc)
		injected.Nacks += fmc.inj.Stats.Nacks
		injected.PageFaults += fmc.inj.Stats.PageFaults
		injected.DRAMSpikes += fmc.inj.Stats.DRAMSpikes
		injected.Suspends += fmc.inj.Stats.Suspends
	}

	for _, v := range allVariants {
		name := v.String()
		if pv := run[v]; pv != nil && pv.cycles > 0 {
			m["cpu.run_ns_per_cycle."+strings.ToLower(name)] = Metric{pv.ns / pv.cycles, "ns"}
			m["cpu.run_allocs_per_cycle."+strings.ToLower(name)] = Metric{pv.allocs / pv.cycles, "count"}
		}
	}
	m["cpu.run_bytes_per_cycle"] = Metric{ratio(bytesAlloc, cyclesAll), "B"}
	m["cpu.run_ns_per_cycle.faulted"] = Metric{ratio(faultedNS, faultedCycles), "ns"}
	m["funcsim.run_ns_per_inst"] = Metric{ratio(funcNS, funcInsts), "ns"}
	m["funcsim.run_allocs_per_inst"] = Metric{ratio(funcAllocs, funcInsts), "count"}
	m["kernels.build_ms"] = Metric{sp.med("kernels.build", 1e6), "ms"}
	m["lint.analyze_ms"] = Metric{sp.med("lint.analyze", 1e6), "ms"}
	m["sim.assemble_us"] = Metric{sp.med("sim.assemble", 1e3), "us"}
	m["sim.check_ms"] = Metric{sp.med("sim.check", 1e6), "ms"}
	m["bench.fingerprint_ms"] = Metric{sp.med("bench.fingerprint", 1e6), "ms"}
	m["wire.encode_us"] = Metric{sp.med("wire.encode", 1e3), "us"}
	m["wire.hash_config_us"] = Metric{sp.med("wire.hash_config", 1e3), "us"}
	m["report.marshal_us"] = Metric{sp.med("report.marshal", 1e3), "us"}
	m["store.put_us"] = Metric{sp.med("store.put", 1e3), "us"}
	m["store.get_us"] = Metric{sp.med("store.get", 1e3), "us"}
	m["model.cycles"] = Metric{float64(counts.cycles), "count"}
	m["model.committed"] = Metric{float64(counts.committed), "count"}
	m["model.renamed"] = Metric{float64(counts.renamed), "count"}
	m["model.squashed"] = Metric{float64(counts.squashed), "count"}
	m["engine.line_requests"] = Metric{float64(counts.lineReqs), "count"}
	m["engine.regenerations"] = Metric{float64(counts.regens), "count"}
	m["mem.l1d_misses"] = Metric{float64(counts.l1), "count"}
	m["mem.l2_misses"] = Metric{float64(counts.l2), "count"}
	m["mem.dram_bytes"] = Metric{float64(counts.dram), "B"}
	m["fault.nacks"] = Metric{float64(injected.Nacks), "count"}
	m["fault.page_faults"] = Metric{float64(injected.PageFaults), "count"}
	m["fault.dram_spikes"] = Metric{float64(injected.DRAMSpikes), "count"}
	m["fault.suspends"] = Metric{float64(injected.Suspends), "count"}
	m["fault.watchdog_trips"] = Metric{float64(trips), "count"}

	if err := probeDescriptors(m, cells); err != nil {
		return err
	}
	if err := probeTiers(c, m); err != nil {
		return err
	}
	if svc == nil {
		s, err := startService(cfg.tmp, "probe")
		if err != nil {
			return err
		}
		defer s.close()
		for _, cl := range sample {
			if err := s.submit(spec(cl, "cycle")); err != nil {
				return err
			}
		}
		svc = s
	}
	return probeService(c, m, svc, sample)
}

// probeFaultSeed is the first seed of the `uvebench -exp faults` grid.
const probeFaultSeed = 0x11

// knownWatchdog lists the cells that trip the 2M-cycle watchdog under
// fault.DefaultPlan(probeFaultSeed) at -scale 4 in this commit: KNN and
// MAMR-Ind on UVE livelock under injection (`uvebench -exp faults -scale 4`
// shows them). The probe skips them rather than spend 3-4 s per trip.
var knownWatchdog = map[string]bool{"M/UVE": true, "Q/UVE": true}

// probeDescriptors times descriptor.Iterator over every UVE kernel's
// descriptors (those without indirect modifiers, which need live origin
// data), rebuilt from the programs' ss.cfg sequences.
func probeDescriptors(m map[string]Metric, cells []cell) error {
	var descs []*descriptor.Descriptor
	for _, cl := range cells {
		if cl.v != kernels.UVE {
			continue
		}
		h := mem.NewHierarchy(mem.DefaultHierarchyConfig())
		inst := cl.k.Build(h, cl.v, cl.size)
		if inst.Err != nil {
			return inst.Err
		}
		parts := map[int][]*isa.StreamCfgPart{}
		for _, in := range inst.Prog.Insts {
			if in.Op != isa.OpSCfg || in.Cfg == nil {
				continue
			}
			p := in.Cfg
			if p.Start {
				parts[p.Stream] = nil
			}
			parts[p.Stream] = append(parts[p.Stream], p)
			if p.End {
				d, err := isa.RebuildDescriptor(parts[p.Stream])
				if err != nil {
					return err
				}
				if !d.HasIndirect() {
					descs = append(descs, d)
				}
			}
		}
	}
	var elems int64
	t0 := time.Now()
	for time.Since(t0) < 300*time.Millisecond {
		for _, d := range descs {
			it := descriptor.NewIterator(d, nil)
			for {
				if _, ok := it.Next(); !ok {
					break
				}
				elems++
			}
		}
	}
	m["descriptor.iter_ns_per_elem"] = Metric{ratio(float64(time.Since(t0).Nanoseconds()), float64(elems)), "ns"}
	return nil
}

// probeTiers times the same 57 Fig 8 cells at -scale 4 on both tiers
// (fresh two-worker runners) and checks that both tiers commit the same
// instruction counts. tier.functional_vs_cycle is cycle-tier wall time over
// functional-tier wall time.
func probeTiers(c *checks, m map[string]Metric) error {
	cells := matrix(4, allVariants)
	wall := map[sim.Fidelity]time.Duration{}
	committed := map[sim.Fidelity][]uint64{}
	for _, fid := range []sim.Fidelity{sim.Cycle, sim.Functional} {
		jobs := make([]bench.Job, len(cells))
		for i, cl := range cells {
			o := sim.DefaultOptions(cl.v)
			o.Fidelity = fid
			jobs[i] = bench.Job{Kernel: cl.k, Variant: cl.v, Size: cl.size, Opts: &o}
		}
		var rs []*sim.Result
		var err error
		wall[fid] = timeIt(func() { rs, err = bench.NewRunner(workers).RunAll(jobs) })
		if err != nil {
			return fmt.Errorf("tier comparison: %w", err)
		}
		for _, r := range rs {
			committed[fid] = append(committed[fid], r.Committed)
		}
	}
	for i, cl := range cells {
		if committed[sim.Cycle][i] != committed[sim.Functional][i] {
			c.fail("tier comparison %s: cycle tier committed %d, functional %d", cl, committed[sim.Cycle][i], committed[sim.Functional][i])
		} else {
			c.ok()
		}
	}
	m["tier.functional_vs_cycle"] = Metric{wall[sim.Cycle].Seconds() / wall[sim.Functional].Seconds(), "ratio"}
	return nil
}
