package main

import (
	"bytes"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"cloudeval/internal/augment"
	"cloudeval/internal/dataset"
	"cloudeval/internal/raceflag"
	"cloudeval/internal/stage"
)

// TestReadCPUProfileLabels: a goroutine that spins in a stage shows up
// under that stage's label in the profile readCPUProfile decodes.
func TestReadCPUProfileLabels(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		stage.Set(stage.BLEU)
		x := 0
		for end := time.Now().Add(time.Second); time.Now().Before(end); {
			for i := range 100000 {
				x += i * i
			}
		}
		sink = x
	}()
	<-done
	pprof.StopCPUProfile()
	samples, err := readCPUProfile(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var col column
	col.addSamples(samples)
	if col.Samples < 3 {
		t.Skipf("%d samples: too few to judge", col.Samples)
	}
	if got := share(col.CPU[stage.BLEU], col.CPU[:]); got < 0.5 {
		t.Errorf("bleu has %.2f of %d samples, want most", got, col.Samples)
	}
}

var sink int

// TestStageRootsResolve: every root of stageRoots names a function of
// this binary, and a small cold campaign, every allocation recorded,
// leaves almost none of its allocations without a stage and runs
// through every string-named root.
func TestStageRootsResolve(t *testing.T) {
	if testing.Short() || raceflag.Enabled {
		t.Skip("records every allocation of a campaign")
	}
	for name := range rootStage {
		if !strings.HasPrefix(name, "cloudeval/") {
			t.Errorf("root %q is not a function of the module", name)
		}
	}
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	problems := augment.ExpandCorpus(dataset.Generate()[:30])
	w := newWiring()
	w.store = filepath.Join(t.TempDir(), "cold.store")
	var col column
	err := col.countAllocs(func() error {
		_, raw, err := stagedCampaign(w, problems)
		for _, scores := range raw {
			col.Ops += len(scores)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := share(col.Allocs[unstaged], col.Allocs[:]); got > 0.02 {
		t.Errorf("%.3f of a cold campaign's allocations have no stage root, want at most 0.02", got)
	}
	for _, s := range []stage.Stage{stage.Provider, stage.Dispatch, stage.Score, stage.Engine, stage.Store, stage.Shell, stage.Apply, stage.Parse, stage.Compile} {
		if col.Allocs[s] == 0 {
			t.Errorf("stage %v allocated nothing in a cold campaign", s)
		}
	}
	seen := map[string]bool{}
	for stk := range heapRecords() {
		frames := runtime.CallersFrames(stk[:])
		for {
			f, more := frames.Next()
			for fn := f.Function; fn != ""; {
				seen[fn] = true
				i := strings.LastIndexByte(fn, '.')
				if i < 0 || strings.LastIndexByte(fn, '/') > i {
					break
				}
				fn = fn[:i]
			}
			if !more {
				break
			}
		}
	}
	for _, roots := range stageRoots {
		for _, r := range roots {
			if name, ok := r.(string); ok && !seen[name] {
				t.Errorf("root %q is on no allocating stack of a cold campaign", name)
			}
		}
	}
}
