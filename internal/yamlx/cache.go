package yamlx

import (
	"crypto/sha256"

	"cloudeval/internal/memo"
)

// The parsed-document cache: YAML sources are content-addressed by
// digest and parsed exactly once per process. The evaluation cold path
// re-reads the same texts constantly — every kubectl apply of
// labeled_code.yaml re-parses the candidate answer, and so does every
// YAML-aware metric — so a cache miss in the engine no longer implies
// a re-parse here.
//
// Cached documents are shared across goroutines and MUST be treated as
// immutable. Callers that change what they parsed copy first: kubesim's
// status path and the llm answer corruptors copy only the nodes above
// each change (ShallowClone, or an arena of their own), Apply's Service
// manifests take a whole Node.Clone, still far cheaper than a re-parse.
// Parse errors are cached too, so a malformed answer sampled at high
// temperature is diagnosed once, not once per metric.
//
// The cache is fed by model-generated answer text, which a long-lived
// daemon sampling at nonzero temperature makes unbounded — hence the
// entry cap (see the memo package): a full cache serves what it holds
// and parses the rest fresh instead of growing forever.

type docOutcome struct {
	docs []*Node
	err  error
}

var docCache = memo.New[[sha256.Size]byte, *docOutcome](1 << 16)

// ParseAllCached is ParseAll through the content-addressed document
// cache. The returned nodes are shared: callers must not mutate them.
// Use Clone or ShallowClone when mutation is needed. The text is a
// string because every caller holds one; a hit hashes it without a heap
// copy and only the parse a miss runs converts it.
func ParseAllCached(src string) ([]*Node, error) {
	o := docCache.Do(memo.Digest(src), func() *docOutcome {
		docs, err := ParseAll([]byte(src))
		return &docOutcome{docs: docs, err: err}
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
// immutable. This is the copy-on-write primitive the kubesim status
// path uses to decorate stored manifests without deep-copying them.
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
