// Package memo holds LRU, the one cache type behind the process-wide
// caches on the benchmark's hot paths, and Digest, the content key of
// the engine's results.
//
// LRU is a sharded singleflight map under a byte budget with LRU
// eviction. One lock per shard, errors never cached, resident cost
// never above the budget. Six caches use it:
//
//   - the engine's unit-test executions and the dispatcher's provider
//     generations, keyed by SHA-256 digests;
//   - yamlx's parsed documents, by the YAML text: mostly candidate
//     answers, parsed again by every kubectl apply and metric;
//   - envoysim's bootstraps, by the envoy config text, which is an
//     answer file;
//   - jsonpath's compiled templates, by the template text, which
//     reaches it as a kubectl argument a script expands while it runs;
//   - shell's grep matchers, by (pattern, -i), a grep argument likewise
//     expanded at run time, sometimes from model output.
//
// The last four are pure functions of text that only exists at run
// time, so nothing loaded with the corpus could hold their outcome;
// they keep their outcomes, errors included, as values, and charge
// each entry its key text plus what its value retains. That text is
// model-generated, which in a long-lived daemon (cloudeval serve)
// sampling at nonzero temperature is unbounded: a full cache evicts
// its least recently used entries, so memory never outgrows the budget
// and a new hot text is still admitted.
//
// What a benchmark problem fixes — its unit test's digest and program,
// its compiled reference, its prompts — is compiled onto the problem
// instead (dataset.Memo) and never looked up by content.
package memo

import "crypto/sha256"

// Digest is the SHA-256 of s, computed without a heap copy of s: the
// engine's key for a result, a digest of its unit test and one of its
// answer, which the store keeps beyond the process. sha256.Sum256([]byte(s)) copies s to the heap — the conversion
// does not escape, but the assembly block function may write its
// argument for all the compiler knows, so -gcflags=-m reports no
// zero-copy conversion — whereas feeding the hasher through a buffer on
// this frame allocates nothing.
func Digest(s string) (sum [sha256.Size]byte) {
	h := sha256.New()
	var buf [512]byte
	for len(s) > 0 {
		n := copy(buf[:], s)
		h.Write(buf[:n])
		s = s[n:]
	}
	h.Sum(sum[:0])
	return sum
}
