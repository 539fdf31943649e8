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
	"cloudeval/internal/shell"
	"cloudeval/internal/unittest"
)

// The two digests TestUnitTestResultsPinned compares against. They were
// recorded at commit 88a77a6, the last one whose shell re-expanded every
// word from its raw text on every execution, and moved once since, when
// `envoy --mode validate` began to validate: 186 executions print
// "configuration 'labeled_code.yaml' OK" where they printed Envoy's
// dispatch-loop line, and putting that line back in their stdout gives
// the earlier digests (8c5bfc9e…, 499d8830…) again.
const (
	unitTestResultsDigest = "cd49c569751f999c4f5b0e8e0bc58f94ce58b21499213d28db39b8fc1479738e"
	unitTestStreamsDigest = "8aa748758ba00c1dd1d22571072735894ebfb44814e36cc96f59cd09cb84ef55"
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
// the same script run on the family's pooled environment directly, its
// stderr taken by a unittest.Recorder: unittest.Result drops stderr,
// and error text is where a change to the shell's expander or a
// simulator's messages shows first.
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

		prog, err := shell.Parse(p.UnitTest)
		if err != nil {
			t.Fatalf("%s: %v", p.ID, err)
		}
		backend := scenario.For(p.Category)
		env := backend.GetEnv()
		sh := env.Interp()
		sh.FS["labeled_code.yaml"] = answer
		rec := unittest.NewRecorder(sh, env.Now)
		stdout, code := sh.Exec(prog)
		backend.PutEnv(env)
		writeStr(streams, stdout)
		writeStr(streams, rec.Stderr())
		writeInt(streams, int64(code))
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
