package llm

import (
	"reflect"
	"sync"
	"testing"

	"cloudeval/internal/dataset"
)

// TestConcurrentGenerationsShareContext runs every model and setting
// against one problem from many goroutines at once. All of them read
// the same compiled context, so each answer must equal the one a
// single goroutine got, and the context's documents must come out
// node for node as they went in; under -race a corruptor that wrote
// through a shared node instead of its own copy is reported as well.
func TestConcurrentGenerationsShareContext(t *testing.T) {
	problems := dataset.Generate()
	for _, p := range []dataset.Problem{problems[0], problems[len(problems)/2], problems[len(problems)-1]} {
		c := contextFor(p)
		docs, labeled := cloneDocs(c.docs), cloneDocs(c.labeled)
		var want []string
		for _, m := range Models {
			pinSweep(func(opts GenOptions) { want = append(want, m.Generate(p, opts)) })
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				i := 0
				for _, m := range Models {
					pinSweep(func(opts GenOptions) {
						if got := m.Generate(p, opts); got != want[i] {
							t.Errorf("%s on %s %+v: concurrent answer differs from the serial one", m.Name, p.ID, opts)
						}
						i++
					})
				}
			}()
		}
		wg.Wait()
		if contextFor(p) != c {
			t.Errorf("%s: context was compiled a second time", p.ID)
		}
		if !reflect.DeepEqual(c.docs, docs) || !reflect.DeepEqual(c.labeled, labeled) {
			t.Errorf("%s: generations changed the shared compiled documents", p.ID)
		}
	}
}
