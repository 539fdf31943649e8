package kubesim

import (
	"errors"
	"fmt"
	"slices"
	"strconv"

	"cloudeval/internal/yamlx"
)

// ValidateManifest performs the schema checks kubectl's server-side
// strict decoding would apply for the kinds the benchmark exercises, and
// returns the row of the manifest's kind. A kind that is not some row's
// Kind, spelled exactly (a command line's plurals and short names name
// no kind in a manifest), or an apiVersion the row does not accept, is
// refused as the API server refuses it. What else the kind must hold is
// the row's fields, walked once, plus the workload rows' selector rule;
// testdata/validate.golden pins every verdict and message.
func ValidateManifest(doc *yamlx.Node) (*Resource, error) {
	if doc == nil || doc.Kind != yamlx.MapKind {
		return nil, fmt.Errorf("error: unable to decode: document is not a mapping")
	}
	kind := doc.Get("kind")
	if kind == nil || kind.ScalarString() == "" {
		return nil, fmt.Errorf("error: unable to decode: Object 'Kind' is missing")
	}
	apiVersion := doc.Get("apiVersion")
	if apiVersion == nil || apiVersion.ScalarString() == "" {
		return nil, fmt.Errorf("error: unable to decode: Object 'apiVersion' is missing")
	}
	k := kind.ScalarString()
	av := apiVersion.ScalarString()
	meta := doc.Get("metadata")
	if meta == nil || meta.Get("name") == nil || meta.Get("name").ScalarString() == "" {
		return nil, fmt.Errorf("error: resource name may not be empty (%s)", k)
	}
	r, ok := Lookup(k)
	if !ok || r.Kind != k || !slices.Contains(r.Versions, av) {
		return nil, noMatch(k, av)
	}
	if r.selector {
		if err := matchSelector(doc.Get("spec"), k); err != nil {
			return r, err
		}
	}
	var path [64]byte
	return r, r.walk(doc, r.fields, path[:0])
}

// noMatch is the API server's answer to a kind it does not serve, or
// serves under other group/versions.
func noMatch(kind, apiVersion string) error {
	return fmt.Errorf("error: unable to recognize: no matches for kind %q in version %q", kind, apiVersion)
}

// A field is one key a manifest of a row's kind may hold: what its value
// must be, and the fields of that value (of each of its items, for a
// sequence marked each).
type field struct {
	key    string
	is     rule
	enum   []string // the values a present field may hold, when not nil
	says   string   // an absent field's message, where Table 4's pinned stderr holds one other than "<path>: Required value"
	fields []field
}

// A rule is one thing a field's value must be.
type rule uint8

const (
	required rule = 1 << iota // present, whatever its value
	filled                    // present, and a scalar with text or a sequence with items
	each                      // a sequence: the fields apply to each item
	port                      // an integer from 1 to 65535
	text                      // not a number or a boolean: strict decoding wants a string
	dropped                   // removed in v1: its presence is a strict decoding error
	rooted                    // paths restart at the key, as a pod spec's always have
	replicas                  // an integer, if it is one, from 0 to maxReplicas
)

// f is the field key with the rules is and the fields of its value.
func f(key string, is rule, fields ...field) field {
	return field{key: key, is: is, fields: fields}
}

// walk checks n against fields, and each value present against its own
// fields, in one pass; path spells n's place in the document as the API
// server does ("spec.ports[0]"). The first field in breach is the error.
func (r *Resource) walk(n *yamlx.Node, fields []field, path []byte) error {
	for i := range fields {
		fl := &fields[i]
		v := n.Get(fl.key)
		switch {
		case fl.is&required != 0 && v == nil,
			fl.is&filled != 0 && fl.is&each == 0 && v.ScalarString() == "",
			fl.is&filled != 0 && fl.is&each != 0 && (v.Len() == 0 || v.Kind != yamlx.SeqKind):
			return r.absent(fl, fl.at(path))
		case v == nil: // its fields may still be required
		case fl.is&dropped != 0:
			return r.unknownFields(n, fields, path)
		case fl.is&port != 0:
			if n, ok := v.AsInt(); !ok || n < 1 || n > 65535 {
				return errors.New("error validating " + r.Kind + ": " + string(fl.at(path)) + ": Invalid value: " + v.ScalarString())
			}
		case fl.is&replicas != 0:
			if n, ok := v.AsInt(); ok && (n < 0 || n > maxReplicas) {
				bound := "must be greater than or equal to 0"
				if n > 0 {
					bound = "must be less than or equal to " + strconv.Itoa(maxReplicas)
				}
				return errors.New("error validating " + r.Kind + ": " + string(fl.at(path)) + ": Invalid value: " + v.ScalarString() + ": " + bound)
			}
		case fl.is&text != 0 && (v.Kind == yamlx.IntKind || v.Kind == yamlx.FloatKind):
			return errors.New("error validating " + r.Kind + ": cannot unmarshal number into Go struct field EnvVar." + string(fl.at(path)) + " of type string")
		case fl.is&text != 0 && v.Kind == yamlx.BoolKind:
			return errors.New("error validating " + r.Kind + ": cannot unmarshal bool into Go struct field EnvVar." + string(fl.at(path)) + " of type string")
		case fl.enum != nil && !slices.Contains(fl.enum, v.ScalarString()):
			return errors.New("error validating " + r.Kind + ": " + string(fl.at(path)) + ": Unsupported value: " + strconv.Quote(v.ScalarString()))
		}
		if fl.fields == nil {
			continue
		}
		p := fl.at(path)
		if fl.is&each == 0 {
			if err := r.walk(v, fl.fields, p); err != nil {
				return err
			}
		} else if v != nil && v.Kind == yamlx.SeqKind {
			for j, it := range v.Items {
				if err := r.walk(it, fl.fields, append(strconv.AppendInt(append(p, '['), int64(j), 10), ']')); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// at is the path of fl's value, in the storage after path's: path and
// the key, or the key alone where paths restart.
func (fl *field) at(path []byte) []byte {
	if fl.is&rooted != 0 {
		path = path[len(path):]
	}
	if len(path) > 0 {
		path = append(path, '.')
	}
	return append(path, fl.key...)
}

// absent is the error for a field that must be there and is not.
func (r *Resource) absent(fl *field, path []byte) error {
	if fl.says != "" {
		return errors.New("error validating " + r.Kind + ": " + fl.says)
	}
	return errors.New("error validating " + r.Kind + ": " + string(path) + ": Required value")
}

// unknownFields is strict decoding's error for the fields v1 dropped
// that n, at path, holds.
func (r *Resource) unknownFields(n *yamlx.Node, fields []field, path []byte) error {
	msg := r.Kind + ` in version "v1" cannot be handled as a ` + r.Kind + ": strict decoding error: "
	sep := ""
	for _, fl := range fields {
		if fl.is&dropped != 0 && n.Get(fl.key) != nil {
			msg += sep + `unknown field "` + string(path) + "." + fl.key + `"`
			sep = ", "
		}
	}
	return errors.New(msg)
}

// matchSelector is the workload rows' one rule that spans two fields:
// spec.selector.matchLabels is there, and the pod template's labels
// carry each of its labels. What the walk reports — no spec, no
// template — it leaves to the walk.
func matchSelector(spec *yamlx.Node, kind string) error {
	if spec == nil {
		return nil
	}
	sel := spec.Path("selector", "matchLabels")
	if sel == nil {
		return errors.New("error validating " + kind + ": spec.selector: Required value")
	}
	if spec.Get("template") == nil {
		return nil
	}
	labels := spec.Path("template", "metadata", "labels")
	for _, e := range sel.Entries {
		if lv := labels.Get(e.Key); lv == nil || lv.ScalarString() != e.Value.ScalarString() {
			return fmt.Errorf(`error validating %s: "spec.template.metadata.labels" does not match selector %q`, kind, e.Key+"="+e.Value.ScalarString())
		}
	}
	return nil
}
