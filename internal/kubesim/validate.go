package kubesim

import (
	"math"
	"slices"
	"strconv"
	"strings"

	"cloudeval/internal/yamlx"
)

// ValidateManifest performs the schema checks kubectl's server-side
// strict decoding would apply for the kinds the benchmark exercises, and
// returns the row of the manifest's kind. A kind that is not some row's
// Kind, spelled exactly (a command line's plurals and short names name
// no kind in a manifest), or an apiVersion the row does not accept, is
// refused as the API server refuses it. What else the kind must hold is
// the row's fields, walked once, plus the workload rows' selector rule,
// and last the API server's rule for metadata.name (nameRuleOf);
// testdata/validate.golden pins every verdict and message. The error is
// one of the cluster's refusals, good until its next Reset.
func (c *Cluster) ValidateManifest(doc *yamlx.Node) (*Resource, error) {
	if doc == nil || doc.Kind != yamlx.MapKind {
		return nil, errNotMapping
	}
	kind := doc.Get("kind")
	if kind == nil || kind.ScalarString() == "" {
		return nil, errKindMissing
	}
	apiVersion := doc.Get("apiVersion")
	if apiVersion == nil || apiVersion.ScalarString() == "" {
		return nil, errAPIVersionMissing
	}
	k := kind.ScalarString()
	av := apiVersion.ScalarString()
	name := doc.Path("metadata", "name").ScalarString()
	if name == "" {
		return nil, c.refuse(nameEmpty, k, "", "", "")
	}
	// Only a row's Kind names it in a manifest, so the spelling is not
	// lower-cased for a second look, as Lookup does.
	r, ok := spellings[k]
	if !ok || r.Kind != k || !slices.Contains(r.Versions, av) {
		return nil, c.refuse(noMatch, k, av, "", "")
	}
	if r.selector {
		if err := c.matchSelector(doc.Get("spec"), k); err != nil {
			return r, err
		}
	}
	var path [64]byte
	if err := c.walk(r, doc, r.fields, path[:0]); err != nil {
		return r, err
	}
	if rule := nameRuleOf(r); !rule.accepts(name) {
		return r, c.refuse(nameInvalid, r.Kind, name, "", "")
	}
	return r, nil
}

// A nameRule is the API server's rule for the metadata.name of a kind.
type nameRule uint8

const (
	dns1123Subdomain nameRule = iota // every kind not named below
	dns1035Label                     // Service
	dns1123Label                     // Namespace
	pathSegment                      // Role, ClusterRole, RoleBinding, ClusterRoleBinding
)

// nameRuleOf is the rule r's names follow.
func nameRuleOf(r *Resource) nameRule {
	switch r {
	case Service:
		return dns1035Label
	case Namespace:
		return dns1123Label
	case Role, ClusterRole, RoleBinding, ClusterRoleBinding:
		return pathSegment
	}
	return dns1123Subdomain
}

// accepts reports whether name breaks none of the rule's checks.
func (rule nameRule) accepts(name string) bool {
	if rule == pathSegment {
		return name != "." && name != ".." && !strings.ContainsAny(name, "/%")
	}
	return len(name) <= rule.maxLen() && rule.form(name)
}

// maxLen is the longest name a DNS rule accepts.
func (rule nameRule) maxLen() int {
	if rule == dns1123Subdomain {
		return 253
	}
	return 63
}

// form reports whether name has the form of the DNS rule, whatever its
// length.
func (rule nameRule) form(name string) bool {
	if rule != dns1123Subdomain {
		return dnsLabel(name, rule == dns1035Label)
	}
	for {
		l, rest, more := strings.Cut(name, ".")
		if !dnsLabel(l, false) {
			return false
		}
		if !more {
			return true
		}
		name = rest
	}
}

// dnsLabel reports whether s is lower-case letters, digits and '-',
// starting and ending with a letter or digit, and starting with a letter
// where alpha: one label of a DNS name, of RFC 1035 where alpha, else of
// RFC 1123.
func dnsLabel(s string, alpha bool) bool {
	if s == "" || s[0] == '-' || s[len(s)-1] == '-' || alpha && s[0] >= '0' && s[0] <= '9' {
		return false
	}
	for i := 0; i < len(s); i++ {
		if b := s[i]; !(b >= 'a' && b <= 'z' || b >= '0' && b <= '9' || b == '-') {
			return false
		}
	}
	return true
}

// What k8s.io/apimachinery's validation says of a name not of a DNS
// rule's form.
const (
	dns1035Message          = `a DNS-1035 label must consist of lower case alphanumeric characters or '-', start with an alphabetic character, and end with an alphanumeric character (e.g. 'my-name',  or 'abc-123', regex used for validation is '[a-z]([-a-z0-9]*[a-z0-9])?')`
	dns1123LabelMessage     = `a lowercase RFC 1123 label must consist of lower case alphanumeric characters or '-', and must start and end with an alphanumeric character (e.g. 'my-name',  or '123-abc', regex used for validation is '[a-z0-9]([-a-z0-9]*[a-z0-9])?')`
	dns1123SubdomainMessage = `a lowercase RFC 1123 subdomain must consist of lower case alphanumeric characters, '-' or '.', and must start and end with an alphanumeric character (e.g. 'example.com', regex used for validation is '[a-z0-9]([-a-z0-9]*[a-z0-9])?(\.[a-z0-9]([-a-z0-9]*[a-z0-9])?)*')`
)

// problems is what the API server says of each of the rule's checks
// name breaks, in the order it checks them.
func (rule nameRule) problems(name string) []string {
	var errs []string
	if rule == pathSegment {
		if name == "." || name == ".." {
			return []string{"may not be '" + name + "'"}
		}
		for _, s := range []string{"/", "%"} {
			if strings.Contains(name, s) {
				errs = append(errs, "may not contain '"+s+"'")
			}
		}
		return errs
	}
	if max := rule.maxLen(); len(name) > max {
		errs = append(errs, "must be no more than "+strconv.Itoa(max)+" characters")
	}
	switch {
	case rule.form(name):
	case rule == dns1035Label:
		errs = append(errs, dns1035Message)
	case rule == dns1123Label && dns1123Subdomain.form(name):
		// A subdomain that is not a label has dots.
		errs = append(errs, "must not contain dots")
	case rule == dns1123Label:
		errs = append(errs, dns1123LabelMessage)
	default:
		errs = append(errs, dns1123SubdomainMessage)
	}
	return errs
}

// nameMessage is the API server's refusal of name as the metadata.name
// of an object of r's kind, group-qualified ("Deployment.apps"): a field
// error for each check broken, listed as the server's aggregate lists
// them.
func nameMessage(r *Resource, name string) string {
	errs := nameRuleOf(r).problems(name)
	for i, e := range errs {
		errs[i] = "metadata.name: Invalid value: " + strconv.Quote(name) + ": " + e
	}
	msg := r.Kind + r.GroupKind[len(r.Singular):] + " " + strconv.Quote(name) + " is invalid: "
	if len(errs) == 1 {
		return msg + errs[0]
	}
	return msg + "[" + strings.Join(errs, ", ") + "]"
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
	port                      // an integer from 1 to 65535, never a string or a boolean
	text                      // not a number or a boolean: strict decoding wants a string
	dropped                   // removed in v1: its presence is a strict decoding error
	rooted                    // paths restart at the key, as a pod spec's always have
	replicas                  // unless null, an integer from 0 to maxReplicas
)

// decodedAs is the JSON type a strict decoder names when it cannot read
// a value of each kind into an integer field. Null, an integer, and a
// float with no fraction inside int64 (which the conversion of YAML to
// JSON writes as an integer) decode.
var decodedAs = [...]string{yamlx.BoolKind: "bool", yamlx.StringKind: "string", yamlx.MapKind: "object", yamlx.SeqKind: "array"}

// notInt32 is the strict decoder's refusal of a value it reads as JSON
// type t for the int32 field at path of the Go struct goType.
func (c *Cluster) notInt32(r *Resource, t, goType string, path []byte) error {
	return c.refuse(notInt32, r.Kind, c.copyText(path), t, goType)
}

// portStruct is the Go struct that holds a port field of key: a
// container's port, or else a Service's.
func portStruct(key string) string {
	if key == "containerPort" {
		return "ContainerPort"
	}
	return "ServicePort"
}

// f is the field key with the rules is and the fields of its value.
func f(key string, is rule, fields ...field) field {
	return field{key: key, is: is, fields: fields}
}

// walk checks n, in a manifest of r's kind, against fields, and each
// value present against its own fields, in one pass; path spells n's
// place in the document as the API server does ("spec.ports[0]"). The
// first field in breach is the error.
func (c *Cluster) walk(r *Resource, n *yamlx.Node, fields []field, path []byte) error {
	for i := range fields {
		fl := &fields[i]
		v := n.Get(fl.key)
		switch {
		case fl.is&required != 0 && v == nil,
			fl.is&filled != 0 && fl.is&each == 0 && v.ScalarString() == "",
			fl.is&filled != 0 && fl.is&each != 0 && (v.Len() == 0 || v.Kind != yamlx.SeqKind):
			return c.absent(r, fl, fl.at(path))
		case v == nil: // its fields may still be required
		case fl.is&dropped != 0:
			return c.unknownFields(r, n, fields, path)
		case fl.is&port != 0:
			if t := decodedAs[v.Kind]; t != "" {
				return c.notInt32(r, t, portStruct(fl.key), fl.at(path))
			}
			if n, ok := v.AsInt(); !ok || n < 1 || n > 65535 {
				return c.refuse(invalidValue, r.Kind, c.copyText(fl.at(path)), v.ScalarString(), "")
			}
		case fl.is&replicas != 0:
			t := decodedAs[v.Kind]
			if v.Kind == yamlx.FloatKind && (v.Float != math.Trunc(v.Float) || math.Abs(v.Float) >= 1<<63) {
				t = "number"
			}
			if t != "" {
				return c.notInt32(r, t, r.Kind+"Spec", fl.at(path))
			}
			if n, ok := v.AsInt(); ok && (n < 0 || n > maxReplicas) {
				bound := "must be greater than or equal to 0"
				if n > 0 {
					bound = "must be less than or equal to " + strconv.Itoa(maxReplicas)
				}
				return c.refuse(outOfRange, r.Kind, c.copyText(fl.at(path)), v.ScalarString(), bound)
			}
		case fl.is&text != 0 && (v.Kind == yamlx.IntKind || v.Kind == yamlx.FloatKind):
			return c.refuse(notString, r.Kind, c.copyText(fl.at(path)), "number", "")
		case fl.is&text != 0 && v.Kind == yamlx.BoolKind:
			return c.refuse(notString, r.Kind, c.copyText(fl.at(path)), "bool", "")
		case fl.enum != nil && !slices.Contains(fl.enum, v.ScalarString()):
			return c.refuse(unsupportedValue, r.Kind, c.copyText(fl.at(path)), v.ScalarString(), "")
		}
		if fl.fields == nil {
			continue
		}
		p := fl.at(path)
		if fl.is&each == 0 {
			if err := c.walk(r, v, fl.fields, p); err != nil {
				return err
			}
		} else if v != nil && v.Kind == yamlx.SeqKind {
			for j, it := range v.Items {
				if err := c.walk(r, it, fl.fields, append(strconv.AppendInt(append(p, '['), int64(j), 10), ']')); err != nil {
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
func (c *Cluster) absent(r *Resource, fl *field, path []byte) error {
	if fl.says != "" {
		return c.refuse(fieldSays, r.Kind, fl.says, "", "")
	}
	return c.refuse(requiredValue, r.Kind, c.copyText(path), "", "")
}

// unknownFields is strict decoding's error for the fields v1 dropped
// that n, at path, holds.
func (c *Cluster) unknownFields(r *Resource, n *yamlx.Node, fields []field, path []byte) error {
	var buf [8]string
	keys := buf[:0]
	for _, fl := range fields {
		if fl.is&dropped != 0 && n.Get(fl.key) != nil {
			keys = append(keys, fl.key)
		}
	}
	return c.refuse(unknownFields, r.Kind, c.copyText(path), yamlx.JoinText(&c.text, keys, ","), "")
}

// matchSelector is the workload rows' one rule that spans two fields:
// spec.selector.matchLabels is there, and the pod template's labels
// carry each of its labels. What the walk reports — no spec, no
// template — it leaves to the walk.
func (c *Cluster) matchSelector(spec *yamlx.Node, kind string) error {
	if spec == nil {
		return nil
	}
	sel := spec.Path("selector", "matchLabels")
	if sel == nil {
		return c.refuse(selectorRequired, kind, "", "", "")
	}
	if spec.Get("template") == nil {
		return nil
	}
	labels := spec.Path("template", "metadata", "labels")
	for _, e := range sel.Entries {
		if lv := labels.Get(e.Key); lv == nil || lv.ScalarString() != e.Value.ScalarString() {
			return c.refuse(selectorMismatch, kind, e.Key, e.Value.ScalarString(), "")
		}
	}
	return nil
}
