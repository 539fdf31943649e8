package yamlx

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"sync"
	"testing"

	"cloudeval/internal/memo"
	"cloudeval/internal/raceflag"
)

const cachedDoc = `apiVersion: apps/v1
kind: Deployment
metadata:
  name: web
  labels:
    app: web   # *
spec:
  replicas: 3
  template:
    spec:
      containers:
      - name: web
        image: nginx:1.25
        ports:
        - containerPort: 80
---
apiVersion: v1
kind: Service
metadata:
  name: web
spec:
  ports: [{port: 80, targetPort: 8080}]
`

// TestParseAllCachedSharedAndEquivalent pins the document cache
// contract: cached parses return the same shared nodes, and those
// nodes are semantically identical to a fresh uncached parse.
func TestParseAllCachedSharedAndEquivalent(t *testing.T) {
	d1, err1 := ParseAllCached(cachedDoc)
	d2, err2 := ParseAllCached(cachedDoc)
	if err1 != nil || err2 != nil {
		t.Fatalf("errors: %v / %v", err1, err2)
	}
	if len(d1) != 2 || len(d2) != 2 {
		t.Fatalf("doc counts: %d / %d", len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Errorf("doc %d: cached parse returned distinct nodes", i)
		}
	}
	fresh, err := ParseAll([]byte(cachedDoc))
	if err != nil {
		t.Fatal(err)
	}
	for i := range fresh {
		if !Equal(d1[i], fresh[i]) {
			t.Errorf("doc %d: cached parse differs from fresh parse", i)
		}
	}
	// Errors are cached too.
	bad := "a: [unterminated\n"
	if _, err := ParseAllCached(bad); err == nil {
		t.Fatal("expected error")
	}
	if _, err := ParseAllCached(bad); err == nil {
		t.Fatal("expected cached error")
	}
}

// TestParseAllCachedConcurrent reads one cached document tree from many
// goroutines (marshal, path walks, equality) while other goroutines
// clone and mutate their copies; run under -race in CI this proves the
// share-immutable/clone-to-mutate discipline holds.
func TestParseAllCachedConcurrent(t *testing.T) {
	docs, err := ParseAllCached(cachedDoc)
	if err != nil {
		t.Fatal(err)
	}
	want := docs[0].Path("spec", "template", "spec", "containers", 0, "image").ScalarString()
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				ds, err := ParseAllCached(cachedDoc)
				if err != nil {
					errs <- err
					return
				}
				if g%2 == 0 {
					// Reader: walk and render the shared tree.
					got := ds[0].Path("spec", "template", "spec", "containers", 0, "image").ScalarString()
					if got != want {
						errs <- fmt.Errorf("read %q, want %q", got, want)
						return
					}
					_ = MarshalAll(ds)
				} else {
					// Mutator: clone, then scribble on the copy.
					cp := ds[0].Clone()
					cp.Set("kind", String("Mutated"))
					cp.Path("spec").Set("replicas", Integer(int64(r)))
				}
			}
			errs <- nil
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := docs[0].Get("kind").ScalarString(); got != "Deployment" {
		t.Errorf("cached tree was mutated: kind=%q", got)
	}
}

// TestShallowClone pins the copy-on-write contract: the clone's shape
// can change without affecting the original, while children remain
// shared.
func TestShallowClone(t *testing.T) {
	orig, err := ParseString("metadata:\n  name: web\nspec:\n  replicas: 2\n")
	if err != nil {
		t.Fatal(err)
	}
	cp := orig.ShallowClone()
	cp.Set("status", String("added"))
	cp.Set("spec", String("replaced"))
	if orig.Has("status") {
		t.Error("Set on shallow clone leaked a new key into the original")
	}
	if orig.Get("spec").ScalarString() == "replaced" {
		t.Error("Set on shallow clone replaced the original's value")
	}
	if orig.Get("metadata") != cp.Get("metadata") {
		t.Error("shallow clone should share child nodes")
	}
	// Seq variant.
	seq := Seq(String("a"), String("b"))
	sc := seq.ShallowClone()
	sc.Append(String("c"))
	sc.Items[0] = String("z")
	if seq.Len() != 2 || seq.Items[0].ScalarString() != "a" {
		t.Error("seq shallow clone mutated the original")
	}
}

// TestDigestOfIsSum256: the cache key, memo.Digest, is still the
// SHA-256 of the text — whatever its length relative to the buffer it
// is fed through — and a hit costs no allocation: the copy of the
// answer that Sum256([]byte(s)) makes was a third of the bytes a
// kubectl apply allocated.
func TestDigestOfIsSum256(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 511, 512, 513, 1024, 1500, 5000} {
		s := strings.Repeat("k: v\n", n/5+1)[:n]
		if memo.Digest(s) != sha256.Sum256([]byte(s)) {
			t.Errorf("memo.Digest differs from sha256.Sum256 on %d bytes", n)
		}
	}
	if raceflag.Enabled {
		return
	}
	if _, err := ParseAllCached(cachedDoc); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { ParseAllCached(cachedDoc) }); allocs != 0 {
		t.Errorf("a document-cache hit allocates %.0f times, want 0", allocs)
	}
}
