package main

import (
	"bufio"
	"embed"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// The reference digests were generated from this repository's simulator
// with --regen and are compiled into the benchmark, so a later change that
// moves any cycle count, statistic, memory image or report byte shows up
// as a failed check.
//
//go:embed digests/*.txt
var digestFS embed.FS

// digests is one workload's reference table: key -> digest line.
type digests struct {
	workload string
	regen    bool

	mu   sync.Mutex
	want map[string]string
	got  map[string]string
}

func loadDigests(workload string, regen bool) (*digests, error) {
	d := &digests{workload: workload, regen: regen, want: map[string]string{}, got: map[string]string{}}
	if regen {
		return d, nil
	}
	b, err := digestFS.ReadFile("digests/" + workload + ".txt")
	if err != nil {
		return nil, fmt.Errorf("reference digests: %w", err)
	}
	sc := bufio.NewScanner(strings.NewReader(string(b)))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("reference digests: malformed line %q", line)
		}
		d.want[key] = val
	}
	if len(d.want) == 0 {
		return nil, fmt.Errorf("reference digests for %s are empty", workload)
	}
	return d, nil
}

// check compares got against the pinned digest for key (or records it
// when regenerating) and counts the outcome.
func (d *digests) check(c *checks, key, got string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.regen {
		d.got[key] = got
		c.ok()
		return
	}
	want, ok := d.want[key]
	switch {
	case !ok:
		c.fail("%s: no reference digest", key)
	case want != got:
		c.fail("%s: digest %s, reference %s", key, got, want)
	default:
		c.ok()
	}
}

// save writes the recorded digests to perfbench/digests/<workload>.txt,
// relative to the repository root the benchmark runs from.
func (d *digests) save() error {
	keys := make([]string, 0, len(d.got))
	for k := range d.got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "# %s reference digests (perfbench --regen)\n", d.workload)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k, d.got[k])
	}
	return os.WriteFile(filepath.Join("perfbench", "digests", d.workload+".txt"), []byte(b.String()), 0o644)
}
