package kubesim

import (
	"errors"
	"strconv"
	"strings"

	"cloudeval/internal/yamlx"
)

// A refusal is the cluster's answer to a request it turns down, kept as
// what the answer names — its form, a kind and up to three operands —
// and worded only when Error is called. Most refusals of a campaign go
// to a stream nobody reads (shell.Stream.WriteError), so their text is
// never built. A cluster takes its refusals from chunks its Reset
// rewinds, and their operands are strings of the manifest, the command
// line or the cluster's text arena, so like the cluster's Objects a
// refusal is good only until that Reset. A refusal that names nothing is
// one of a fixed set of package errors instead.
type refusal struct {
	form    form
	kind    string // the row's Kind or Singular, or the manifest's kind
	a, b, c string // the form's operands, in the order Error reads them
}

// form is which message a refusal words.
type form uint8

const (
	nameEmpty         form = iota // kind
	nameInvalid                   // Kind, name
	noMatch                       // kind, apiVersion
	selectorRequired              // kind
	selectorMismatch              // kind, label key, label value
	requiredValue                 // kind, path
	fieldSays                     // kind, the field's own message
	notInt32                      // kind, path, the JSON type read, the Go struct
	invalidValue                  // kind, path, value
	outOfRange                    // kind, path, value, bound
	notString                     // kind, path, the JSON type read
	unsupportedValue              // kind, path, value
	unknownFields                 // kind, path, the dropped keys present, comma-separated
	namespaceNotFound             // namespace
	namespaceExists               // namespace
	waitNotFound                  // singular, names
	waitTimedOut                  // singular
	ingressNotFound               // name
)

// The refusals that name nothing.
var (
	errNotMapping        = errors.New("error: unable to decode: document is not a mapping")
	errKindMissing       = errors.New("error: unable to decode: Object 'Kind' is missing")
	errAPIVersionMissing = errors.New("error: unable to decode: Object 'apiVersion' is missing")
	errNoObjects         = errors.New("error: no objects passed to apply")
	errNoMatch           = errors.New("error: no matching resources found")
)

// refuse returns a refusal of form f from the cluster's chunks.
func (c *Cluster) refuse(f form, kind, a, b, x string) error {
	r := &c.refusals.Take(1)[0]
	*r = refusal{form: f, kind: kind, a: a, b: b, c: x}
	return r
}

// copyText is b as a string in the cluster's text arena, where a
// refusal keeps a path the walk spelled in its own buffer.
func (c *Cluster) copyText(b []byte) string { return yamlx.CopyText(&c.text, b) }

// Error words the refusal as the API server or kubectl does.
func (r *refusal) Error() string {
	switch r.form {
	case nameEmpty:
		return "error: resource name may not be empty (" + r.kind + ")"
	case nameInvalid:
		return nameMessage(spellings[r.kind], r.a)
	case noMatch:
		return "error: unable to recognize: no matches for kind " + strconv.Quote(r.kind) + " in version " + strconv.Quote(r.a)
	case unknownFields:
		msg := r.kind + ` in version "v1" cannot be handled as a ` + r.kind + ": strict decoding error: "
		for i, key := range strings.Split(r.b, ",") {
			if i > 0 {
				msg += ", "
			}
			msg += `unknown field "` + r.a + "." + key + `"`
		}
		return msg
	case namespaceNotFound:
		return "namespaces " + strconv.Quote(r.a) + " not found"
	case namespaceExists:
		return "namespaces " + strconv.Quote(r.a) + " already exists"
	case waitNotFound:
		return "error: " + r.kind + " " + strconv.Quote(r.a) + " not found"
	case waitTimedOut:
		return "error: timed out waiting for the condition on " + r.kind
	case ingressNotFound:
		return "Error from server (NotFound): " + Ingress.Singular + " " + strconv.Quote(r.a) + " not found"
	}
	return "error validating " + r.kind + ": " + r.invalid()
}

// invalid is what a refusal of the schema walk or the selector rule
// says after naming the kind it validated.
func (r *refusal) invalid() string {
	switch r.form {
	case selectorRequired:
		return "spec.selector: Required value"
	case selectorMismatch:
		return `"spec.template.metadata.labels" does not match selector ` + strconv.Quote(r.a+"="+r.b)
	case requiredValue:
		return r.a + ": Required value"
	case fieldSays:
		return r.a
	case notInt32:
		return "cannot unmarshal " + r.b + " into Go struct field " + r.c + "." + r.a + " of type int32"
	case invalidValue:
		return r.a + ": Invalid value: " + r.b
	case outOfRange:
		return r.a + ": Invalid value: " + r.b + ": " + r.c
	case notString:
		return "cannot unmarshal " + r.b + " into Go struct field EnvVar." + r.a + " of type string"
	case unsupportedValue:
		return r.a + ": Unsupported value: " + strconv.Quote(r.b)
	}
	panic("kubesim: refusal of unknown form")
}
