package sim_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/kernels"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/store"
)

var update = flag.Bool("update", false, "rewrite testdata/matrix.golden")

// TestMatrixGolden is the bit-identity gate over the paper matrix: every
// kernel × variant × fidelity cell at scale 4, served through uveserve's
// core. Each line pins the cell's bench.FingerprintJob (the persistent
// store key) and the SHA-256 of the report payload stored under it, so a
// change that moves a cycle count, a statistic, a report byte or a store
// key fails here. Regenerate with
// `go test ./internal/sim -run TestMatrixGolden -update` only for an
// intentional result change.
func TestMatrixGolden(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Store: st, Workers: 2, QueueLen: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	type cell struct {
		spec serve.JobSpec
		job  bench.Job
		id   string
	}
	var cells []cell
	for _, fid := range []sim.Fidelity{sim.Cycle, sim.Functional} {
		for _, k := range kernels.All {
			for _, v := range []kernels.Variant{kernels.UVE, kernels.SVE, kernels.NEON} {
				size := bench.SizeFor(k, &bench.Options{Scale: 4})
				spec := serve.JobSpec{Kernel: k.ID, Variant: strings.ToLower(v.String()), Size: size, Fidelity: fid.String()}
				id, err := srv.Submit(spec)
				if err != nil {
					t.Fatalf("submit %+v: %v", spec, err)
				}
				o := sim.DefaultOptions(v)
				o.Fidelity = fid
				cells = append(cells, cell{spec, bench.Job{Kernel: k, Variant: v, Size: size, Opts: &o}, id})
			}
		}
	}

	var got bytes.Buffer
	for _, c := range cells {
		js, _ := srv.Wait(context.Background(), c.id)
		if js.State != serve.StateDone {
			t.Fatalf("%+v: state %s (%s)", c.spec, js.State, js.Error)
		}
		fp, err := bench.FingerprintJob(c.job)
		if err != nil {
			t.Fatal(err)
		}
		stored, hit, err := st.Get(fp)
		if err != nil || !hit || !bytes.Equal(stored, js.Payload) {
			t.Fatalf("%+v: payload not stored under its fingerprint (hit=%v err=%v)", c.spec, hit, err)
		}
		fmt.Fprintf(&got, "%s %s %s %d %s %x\n", c.spec.Kernel, c.spec.Variant, c.spec.Fidelity,
			c.spec.Size, fp, sha256.Sum256(js.Payload))
	}

	golden := filepath.Join("testdata", "matrix.golden")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				w := "<missing>"
				if i < len(wl) {
					w = wl[i]
				}
				t.Errorf("matrix.golden line %d:\n got  %s\n want %s", i+1, gl[i], w)
			}
		}
		if len(wl) > len(gl) {
			t.Errorf("matrix.golden has %d lines, matrix has %d", len(wl), len(gl))
		}
	}
}
