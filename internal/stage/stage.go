// Package stage names the layers a campaign passes through and marks
// which one a goroutine is in, so that a CPU profile can say what
// share of a campaign each layer costs (DESIGN.md §1.1). A stage is a
// pprof label, "stage", on the goroutine: every CPU sample taken while
// it runs carries the name of the stage it last entered, and
// goroutines it starts inherit it.
//
// Entering a stage is one pprof.SetGoroutineLabels call with a label
// set built at init: it stores a pointer and allocates nothing, so the
// stages stay in the code that ships. There is no stack of stages. A
// caller that goes on working after a staged callee returns enters its
// own stage again.
package stage

import (
	"context"
	"runtime/pprof"
)

// Stage is one layer of a campaign.
type Stage uint8

// The stages, in campaign order (DESIGN.md §1.1).
const (
	// Campaign is the evaluator's and the engine's own work: building
	// the job list, claiming jobs and handing generations to executors.
	Campaign Stage = iota
	// Prompt renders prompts and derives their digests.
	Prompt
	// Dispatch is the dispatcher: request keys, the generation cache
	// and the concurrency limit.
	Dispatch
	// Provider is the provider's call: the llm sim's generation, or an
	// HTTP round trip.
	Provider
	// Postprocess cuts the YAML out of a response (llm.Postprocess).
	Postprocess
	// Score is the evaluator's share of scoring an answer: the
	// reference's compiled context and the campaign's memo of text
	// scores.
	Score
	// BLEU, EditDist and Exact are the text metrics; KV is the two
	// key-value metrics, which share one parse of the answer.
	BLEU
	EditDist
	Exact
	KV
	// Parse is a parse of answer text into YAML documents, by scoring
	// or by a simulator reading labeled_code.yaml.
	Parse
	// Engine is the engine's result cache: digests and the in-memory
	// tier.
	Engine
	// Store is the on-disk tier: reads, appends, open and close.
	Store
	// Compile, Shell, Apply and Wait split unittest.Run: the script's
	// compiled program, the interpreter running it, a simulator taking
	// in documents, and a simulator advancing virtual time to a
	// condition.
	Compile
	Shell
	Apply
	Wait
	// Count is the number of stages.
	Count
)

var names = [Count]string{
	Campaign:    "campaign",
	Prompt:      "prompt",
	Dispatch:    "dispatch",
	Provider:    "provider",
	Postprocess: "postprocess",
	Score:       "score",
	BLEU:        "bleu",
	EditDist:    "editdist",
	Exact:       "exact",
	KV:          "kv",
	Parse:       "parse",
	Engine:      "engine",
	Store:       "store",
	Compile:     "compile",
	Shell:       "shell",
	Apply:       "apply",
	Wait:        "wait",
}

// Key is the pprof label key that carries a goroutine's stage.
const Key = "stage"

// labels holds each stage's label set, built once.
var labels [Count]context.Context

func init() {
	for s := range Count {
		labels[s] = pprof.WithLabels(context.Background(), pprof.Labels(Key, names[s]))
	}
}

// String is the stage's name, the value of its label.
func (s Stage) String() string {
	if s < Count {
		return names[s]
	}
	return "stage(?)"
}

// Set makes s the calling goroutine's stage until its next Set.
func Set(s Stage) { pprof.SetGoroutineLabels(labels[s]) }

// Clear takes the calling goroutine out of every stage, as it was
// before its first Set.
func Clear() { pprof.SetGoroutineLabels(context.Background()) }

// ByName returns the stage whose name is name.
func ByName(name string) (Stage, bool) {
	for s := range Count {
		if names[s] == name {
			return s, true
		}
	}
	return 0, false
}
