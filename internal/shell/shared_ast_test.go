package shell

import (
	"fmt"
	"sync"
	"testing"
)

// sharedASTScript exercises every node type the parser produces —
// pipelines, and/or lists, if/elif/else, for and while loops, [[ ]]
// and [ ] conditions, (( )) arithmetic, redirects, command and
// arithmetic substitution — so running it concurrently from one cached
// AST probes the whole interpreter surface for state leaking into
// shared nodes. Run under -race in CI.
const sharedASTScript = `
COUNT=0
for f in a b c d; do
  COUNT=$((COUNT + 1))
  echo "item $f -> $COUNT"
done
if [[ $COUNT == 4 && -z "$MISSING" ]]; then
  echo four | tr a-z A-Z
else
  echo wrong
fi
while (( COUNT > 0 )); do
  COUNT=$((COUNT - 1))
done
echo "left $COUNT ok_$(echo sub)" > out.txt
cat out.txt
[ "$COUNT" -eq 0 ] && echo zero || echo nonzero
printf '%s\n' done
`

// TestSharedASTConcurrent runs one compiled program from many
// interpreters at once and asserts every run is byte-identical to a
// fresh parse executed serially. This is the contract that lets a
// benchmark problem compile its unit test once and run it everywhere:
// all mutable state lives in the Interp, never in the shared nodes.
func TestSharedASTConcurrent(t *testing.T) {
	want, err := New().Run(sharedASTScript)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	prog, err := Parse(sharedASTScript)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	const goroutines = 16
	const rounds = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got := New().Exec(prog)
				if got != want {
					errs <- fmt.Errorf("goroutine %d round %d diverged from fresh parse:\ngot  %q (%d)\nwant %q (%d)",
						g, r, got.Stdout, got.ExitCode, want.Stdout, want.ExitCode)
					return
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
}
