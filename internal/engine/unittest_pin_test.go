package engine_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"sync"
	"testing"

	"cloudeval/internal/augment"
	"cloudeval/internal/dataset"
	"cloudeval/internal/engine"
	"cloudeval/internal/inference"
	"cloudeval/internal/llm"
	"cloudeval/internal/scenario"
	"cloudeval/internal/unittest"
)

// The two digests TestUnitTestResultsPinned compares against, recorded
// at commit 88a77a6 — the last one whose shell re-expanded every word
// from its raw text on every execution.
const (
	unitTestResultsDigest = "8c5bfc9eb680774de486a2816cc10c3e44562c3d27c5112dc2f3592d374389ef"
	unitTestStreamsDigest = "499d8830dbb03188b936ba4b392bccc9c2ab58dde3e8c92b740273ea0950f7ce"
)

// execution is one distinct unit-test execution of a campaign.
type execution struct {
	problem dataset.Problem
	answer  string
}

// table4Executions enumerates every distinct unit-test execution of a
// Table 4 campaign, in campaign order: the twelve-model zoo over the
// augmented corpus, English-only models skipping translated questions,
// deduplicated on (script, answer) the way the engine memoises. The
// tests of this package that run them all share one enumeration.
var table4Executions = sync.OnceValue(func() []execution {
	problems := augment.ExpandCorpus(dataset.Generate())
	type pair struct{ model, problem int }
	var pairs []pair
	for mi, m := range llm.Models {
		for pi, p := range problems {
			if m.EnglishOnly && p.Variant == dataset.Translated {
				continue
			}
			pairs = append(pairs, pair{mi, pi})
		}
	}
	disp := inference.NewDispatcher(inference.NewSim(llm.Models))
	answers := make([]string, len(pairs))
	engine.New().ForEach(len(pairs), func(i int) {
		answers[i] = disp.Answer(llm.Models[pairs[i].model], problems[pairs[i].problem], llm.GenOptions{})
	})
	type key struct{ test, answer string }
	seen := make(map[key]struct{}, len(pairs))
	var out []execution
	for i, pr := range pairs {
		p := problems[pr.problem]
		k := key{p.UnitTest, answers[i]}
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, execution{p, answers[i]})
	}
	return out
})

// TestUnitTestResultsPinned runs every distinct unit-test execution of
// a Table 4 campaign (table4Executions) and pins one SHA-256
// over what unittest.Run reports and a second over the three streams of
// the same script run on the family's pooled environment directly:
// unittest.Result drops stderr, and error text is where a change to the
// shell's expander or a simulator's messages shows first.
func TestUnitTestResultsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 4 matrix in -short mode")
	}
	writeStr := func(h hash.Hash, s string) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	writeInt := func(h hash.Hash, v int64) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(v))
		h.Write(n[:])
	}

	results, streams := sha256.New(), sha256.New()
	executions, passed := 0, 0
	for _, x := range table4Executions() {
		p, answer := x.problem, x.answer
		executions++
		res := unittest.Run(p, answer)
		if res.Passed {
			passed++
		}
		writeStr(results, p.ID)
		writeInt(results, int64(btoi(res.Passed)))
		writeInt(results, int64(res.ExitCode))
		writeInt(results, int64(res.VirtualTime))
		writeStr(results, res.Output)
		errText := ""
		if res.Err != nil {
			errText = res.Err.Error()
		}
		writeStr(results, errText)

		backend := scenario.For(p.Category)
		env := backend.GetEnv()
		sh := env.Interp()
		sh.FS["labeled_code.yaml"] = answer
		raw, err := sh.Run(p.UnitTest)
		backend.PutEnv(env)
		if err != nil {
			t.Fatalf("%s: %v", p.ID, err)
		}
		writeStr(streams, raw.Stdout)
		writeStr(streams, raw.Stderr)
		writeInt(streams, int64(raw.ExitCode))
	}

	if executions != 5736 || passed != 1012 {
		t.Errorf("distinct executions = %d (%d passing), want 5736 (1012 passing)", executions, passed)
	}
	if got := hex.EncodeToString(results.Sum(nil)); got != unitTestResultsDigest {
		t.Errorf("digest of unittest.Run results = %s, pinned %s", got, unitTestResultsDigest)
	}
	if got := hex.EncodeToString(streams.Sum(nil)); got != unitTestStreamsDigest {
		t.Errorf("digest of stdout/stderr/exit code = %s, pinned %s", got, unitTestStreamsDigest)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
