package composesim

import (
	"errors"
	"strconv"

	"cloudeval/internal/yamlx"
)

// A refusal is the project's answer to a compose file it turns down,
// kept as its form and the service and port spec it names, and worded
// only when Error is called, as kubesim's refusals are. A project takes
// its refusals from chunks its Reset rewinds, so a refusal is good only
// until then.
type refusal struct {
	form          form
	service, spec string
}

// form is which message a refusal words.
type form uint8

const (
	accepted         form = iota // no refusal: what parsePort returns for a spec it reads
	serviceNotMap                // service
	serviceNoImage               // service
	portProtocol                 // service, spec
	portMapping                  // service, spec
	dependencyCycle              // service
	dependsUndefined             // service
)

// The refusals that name nothing.
var (
	errNotSingle  = errors.New("compose file must be a single document")
	errNotMapping = errors.New("top-level object must be a mapping")
	errNoServices = errors.New("missing or empty `services` mapping")
)

// refuse returns a refusal of form f from the project's chunks.
func (p *Project) refuse(f form, service, spec string) error {
	r := &p.refusals.Take(1)[0]
	*r = refusal{form: f, service: service, spec: spec}
	return r
}

// Error words the refusal as the simulator always has.
func (r *refusal) Error() string {
	service := strconv.Quote(r.service)
	switch r.form {
	case serviceNotMap:
		return "service " + service + " must be a mapping"
	case serviceNoImage:
		return "service " + service + " has no image"
	case portProtocol:
		return "service " + service + ": invalid port protocol in " + strconv.Quote(r.spec)
	case portMapping:
		return "service " + service + ": invalid port mapping " + strconv.Quote(r.spec)
	case dependencyCycle:
		return "dependency cycle through service " + service
	case dependsUndefined:
		return "depends_on references undefined service " + service
	}
	panic("composesim: refusal of unknown form")
}

// parseRefusal is Load's error for text that does not parse: one
// pointer wide, so returning it costs nothing, and worded from the
// cached ParseError only when read.
type parseRefusal struct{ err *yamlx.ParseError }

func (e parseRefusal) Error() string { return "parsing compose file: " + e.err.Error() }
