package yamlx

import (
	"hash/maphash"

	"cloudeval/internal/memo"
)

// The parsed-document cache: each YAML text is parsed exactly once per
// process while its entry lasts. The evaluation cold path re-reads the
// same texts constantly — every kubectl apply of labeled_code.yaml
// re-parses the candidate answer, and so does every YAML-aware metric —
// so a cache miss in the engine no longer implies a re-parse here.
//
// Cached documents are shared across goroutines and MUST be treated as
// immutable. Callers that change what they parsed copy first, and only
// the nodes above each change: kubesim's status documents and Service
// allocations and the llm answer corruptors, each into an Arena of
// their own (Arena.ShallowClone). Parse errors are cached too, text and all, so a malformed
// answer sampled at high temperature is diagnosed once, not once per
// metric or apply.
//
// The cache is keyed by the text itself and fed by model-generated
// answers, which a long-lived daemon sampling at nonzero temperature
// makes unbounded — hence the byte budget (see the memo package).

type docOutcome struct {
	docs []*Node
	err  error
}

// docBudget bounds what the cache retains. A full Table 4 campaign
// keeps 5,245 texts charged 29 MB, every experiment of cloudeval
// figures together 6,491 charged 37.5 MB, so no benchmark workload
// evicts.
const docBudget = 128 << 20

// docCost charges an entry its key text plus its parsed documents,
// measured at 12.5 times the text on a 320-byte manifest and 7.8 times
// on a 1 MiB one.
func docCost(src string) int64 { return memo.EntryOverhead + 16*int64(len(src)) }

var (
	docSeed  = maphash.MakeSeed()
	docCache = memo.NewLRU[string, docOutcome](docHash, docBudget)
)

func docHash(s string) uint64 { return maphash.String(docSeed, s) }

// ParseAllCached is ParseAll through the document cache. The returned
// nodes are shared: callers must not mutate them. Use Clone or
// ShallowClone when mutation is needed. The text is a string because
// every caller holds one; a hit only hashes and compares it, and only
// the parse a miss runs converts it.
func ParseAllCached(src string) ([]*Node, error) {
	o, _, _ := docCache.Do(src, func() (docOutcome, int64, error) {
		docs, err := ParseAll([]byte(src))
		return docOutcome{docs, err}, docCost(src), nil
	})
	return o.docs, o.err
}

// ParseCachedString is Parse through the document cache: the first
// non-empty document of the stream, shared and immutable.
func ParseCachedString(s string) (*Node, error) {
	docs, err := ParseAllCached(s)
	if err != nil {
		return nil, err
	}
	for _, d := range docs {
		if d != nil && d.Kind != NullKind {
			return d, nil
		}
	}
	if len(docs) > 0 {
		return docs[0], nil
	}
	return Null(), nil
}

// ShallowClone copies the node itself — including its Entries or Items
// slice header and backing array — while sharing the child nodes. The
// copy's own shape can be changed (Set, Append, Delete) without
// affecting the original; the shared children must still be treated as
// immutable. Arena.ShallowClone is the same copy built in an arena.
func (n *Node) ShallowClone() *Node {
	if n == nil {
		return nil
	}
	c := *n
	if n.Kind == MapKind {
		c.Entries = make([]Entry, len(n.Entries), len(n.Entries)+2)
		copy(c.Entries, n.Entries)
	}
	if n.Kind == SeqKind {
		c.Items = make([]*Node, len(n.Items))
		copy(c.Items, n.Items)
	}
	return &c
}
