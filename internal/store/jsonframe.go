package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"time"

	"cloudeval/internal/inference"
	"cloudeval/internal/unittest"
)

// The JSON payload layout: what every store wrote before the binary
// layout in codec.go, recognised by its leading '{'. It is read-only —
// nothing writes it any more — and this file is the only one in the
// package that reaches encoding/json or encoding/hex.
// OpenStats.LegacyFrames reports how many such frames an Open scanned;
// once stores in the field report zero, this file can go.

// keyFrame is the part of a JSON payload that feeds the offset index.
// The scan decodes into it alone, so json.Unmarshal skips the payload
// strings (Output, Text) and never materializes one. Kind selects the
// record type: "" (absent, the original format) is a unit-test result,
// "gen" a generation.
type keyFrame struct {
	Kind   string `json:"kind"`
	Test   string `json:"test"`   // hex sha256 of the unit-test script
	Answer string `json:"answer"` // hex sha256 of the answer
	Gen    string `json:"gen"`    // hex generation key
}

// frame is a whole JSON payload.
type frame struct {
	keyFrame

	// Unit-test fields.
	Passed      bool    `json:"passed"`
	Output      string  `json:"output"`
	ExitCode    int     `json:"exit_code"`
	VirtualSecs float64 `json:"virtual_secs"`

	// Generation fields.
	Text             string `json:"text"`
	PromptTokens     int    `json:"prompt_tokens"`
	CompletionTokens int    `json:"completion_tokens"`
	LatencyNs        int64  `json:"latency_ns"`
}

// genKind tags JSON generation frames.
const genKind = "gen"

// key recovers the index key from the hex digests, reporting false
// when one is malformed.
func (fr keyFrame) key() (k key, ok bool) {
	if fr.Kind == genKind {
		k.kind = kindGen
		return k, unhex(&k.a, fr.Gen)
	}
	return k, unhex(&k.a, fr.Test) && unhex(&k.b, fr.Answer)
}

func unhex(dst *[sha256.Size]byte, s string) bool {
	if len(s) != 2*sha256.Size {
		return false
	}
	_, err := hex.Decode(dst[:], []byte(s))
	return err == nil
}

// jsonPayloadKey is payloadKey for a JSON payload.
func jsonPayloadKey(p []byte) (key, bool) {
	var fr keyFrame
	if json.Unmarshal(p, &fr) != nil {
		return key{}, false
	}
	return fr.key()
}

// decodeJSON is decode for a JSON payload. VirtualSecs keeps the
// float-seconds conversion these frames were always read with, 1 ns
// off for some millisecond multiples; the binary layout stores
// nanoseconds and has no such loss.
func decodeJSON(p []byte) (key, record, bool) {
	var fr frame
	if json.Unmarshal(p, &fr) != nil {
		return key{}, record{}, false
	}
	k, ok := fr.key()
	if !ok {
		return key{}, record{}, false
	}
	if k.kind == kindGen {
		return k, genRecord(inference.Response{
			Text:    fr.Text,
			Usage:   inference.Usage{PromptTokens: fr.PromptTokens, CompletionTokens: fr.CompletionTokens},
			Latency: time.Duration(fr.LatencyNs),
		}), true
	}
	return k, unitRecord(unittest.Result{
		Passed:      fr.Passed,
		Output:      fr.Output,
		ExitCode:    fr.ExitCode,
		VirtualTime: time.Duration(fr.VirtualSecs * float64(time.Second)),
	}), true
}
