package kubesim

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"cloudeval/internal/yamlx"
)

// WaitOptions mirror the flags of "kubectl wait".
type WaitOptions struct {
	Resource  *Resource
	Namespace string
	Names     []string // explicit resource names; empty means selector/all
	Selector  Selector // -l app=web
	All       bool     // --all
	Condition string   // condition name from --for=condition=X
	Timeout   time.Duration
}

// WaitFor advances the virtual clock until every targeted resource
// reports the condition with status True, or the timeout elapses. Like
// kubectl, it errors when no resources match or the condition never
// becomes true.
//
// The targets — by name or by selector — are resolved once, before the
// loop: a wait only advances the clock, and nothing it can change
// changes which objects it is waiting for. The loop itself steps in
// 500 ms as it always has, so every virtual time a script observes is
// unchanged (TestWaitMatchesSteppingOracle keeps the loop that resolved
// its targets at every step). It is the hottest polling path of a unit
// test (up to 60 probes per wait), so conditions are evaluated directly
// on the stored objects via ObjectCondition instead of materializing
// kubectl-style status documents each step;
// TestObjectConditionMatchesStatus pins the two representations
// together.
func (c *Cluster) WaitFor(opts WaitOptions) error {
	if opts.Timeout <= 0 {
		opts.Timeout = 30 * time.Second
	}
	deadline := c.now.Add(opts.Timeout)
	const step = 500 * time.Millisecond
	targets := c.waitTargets(opts)
	if len(targets) == 0 {
		if len(opts.Names) > 0 {
			return fmt.Errorf("error: %s %q not found", opts.Resource.Singular, strings.Join(opts.Names, ", "))
		}
		return errNoMatch
	}
	for {
		if c.allConditionsTrue(targets, opts.Condition) {
			return nil
		}
		if !c.now.Before(deadline) {
			return fmt.Errorf("error: timed out waiting for the condition on %s", opts.Resource.Singular)
		}
		c.AdvanceTime(step)
	}
}

var errNoMatch = errors.New("error: no matching resources found")

func (c *Cluster) waitTargets(opts WaitOptions) []*Object {
	if len(opts.Names) == 0 {
		return c.ListObjects(opts.Resource, opts.Namespace, opts.Selector)
	}
	out := make([]*Object, 0, len(opts.Names))
	for _, name := range opts.Names {
		if o, ok := c.GetObject(opts.Resource, opts.Namespace, name); ok {
			out = append(out, o)
		}
	}
	return out
}

func (c *Cluster) allConditionsTrue(objs []*Object, condType string) bool {
	for _, o := range objs {
		if !c.ObjectCondition(o, condType) {
			return false
		}
	}
	return true
}

// HasCondition reports whether a resource's status.conditions include
// the given type (case-insensitive) with status "True".
func HasCondition(n *yamlx.Node, condType string) bool {
	conds := n.Path("status", "conditions")
	if conds == nil || conds.Kind != yamlx.SeqKind {
		return false
	}
	for _, cd := range conds.Items {
		if strings.EqualFold(cd.Get("type").ScalarString(), condType) {
			return strings.EqualFold(cd.Get("status").ScalarString(), "True")
		}
	}
	return false
}
