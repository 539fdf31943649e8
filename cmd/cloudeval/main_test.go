package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cloudeval/internal/dataset"
	"cloudeval/internal/llm"
)

// pinnedFlags is every subcommand's flag set, as sorted name=default
// pairs. A flag renamed, dropped, added or given a new default fails
// TestFlagsPinned: scripts and CI call these by name. One default
// moved when the four binaries became one: dataset's -out was
// "dataset", and is empty so that plain "cloudeval dataset" writes
// nothing and prints Tables 1 and 2.
var pinnedFlags = map[string]string{
	"bench":       "blockprofile= cpuprofile= gen-concurrency=-1 memprofile= mutexprofile= provider=sim record= replay= store=",
	"campaign":    "dir= gen-concurrency=-1 ids= provider=sim record= replay= store=",
	"cluster":     "cache=false workers=64",
	"cost":        "",
	"dataset":     "augmented=false digest= out=",
	"eval":        "f= problem=",
	"figures":     "all=false gen-concurrency=-1 id= provider=sim record= replay= store=",
	"loadgen":     "addr= concurrency=8 n=200 out= qps=0 record-trace= seed=1 store= tenants= trace= warm=false",
	"models":      "gen-concurrency=-1 provider=sim record= replay=",
	"node master": "addr=127.0.0.1:6399 gen-concurrency=-1 inflight=16 limit=50 model=gpt-4 timeout=5m0s",
	"node redis":  "addr=127.0.0.1:6399",
	"node worker": "addr=127.0.0.1:6399 idle=10s name=worker store=",
	"serve":       "addr=:8080 campaign-queue=0 campaign-workers=0 data=cloudevald-data gen-concurrency=-1 pprof=false provider=sim record= replay= store= tenant-burst=0 tenant-rate=0 warm=false",
}

func TestFlagsPinned(t *testing.T) {
	for name, cmd := range commands {
		fs := flag.NewFlagSet(name, flag.ContinueOnError)
		cmd(fs)
		var pairs []string
		fs.VisitAll(func(f *flag.Flag) { pairs = append(pairs, f.Name+"="+f.DefValue) })
		want, ok := pinnedFlags[name]
		if !ok {
			t.Errorf("%s has no pinned flags", name)
		} else if got := strings.Join(pairs, " "); got != want {
			t.Errorf("%s flags:\n got %s\nwant %s", name, got, want)
		}
	}
	if len(pinnedFlags) != len(commands) {
		t.Errorf("%d subcommands pinned, %d exist", len(pinnedFlags), len(commands))
	}
}

// TestCloseReturnsGenerationError: a campaign renders a failed
// generation as an empty answer and carries on, so the chain's close
// is where the failure must surface, and with it the exit status.
func TestCloseReturnsGenerationError(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "empty.trace")
	if err := os.WriteFile(trace, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	w := newWiring()
	w.replay = trace
	c, err := w.open()
	if err != nil {
		t.Fatal(err)
	}
	c.ev.Model(llm.Models[0], dataset.Generate()[:1], llm.GenOptions{})
	if err := c.close(); err == nil || !strings.Contains(err.Error(), "has no entry") {
		t.Fatalf("close = %v, want the replay miss", err)
	}
}
