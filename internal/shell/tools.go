package shell

import (
	"fmt"
	"strconv"
	"strings"
)

// What the families' tool builtins (kubectl, helm, docker compose and
// the rest) share: one flag scanner, and one curl that each family
// answers with its own simulated network.

// FlagSet is a command line scanned the way kubectl scans one: it
// separates positional args from --flag=value / --flag value / -x value
// forms. A command line has a handful of flags, so they are a short list
// searched by name, in the order first given.
type FlagSet struct {
	Positional []string
	flags      []flagValue
}

type flagValue struct{ name, value string }

// FlagBuf is where a FlagSet's two lists start out. It is the caller's
// variable, on the caller's stack, so parsing a typical command line
// allocates nothing.
type FlagBuf struct {
	positional [4]string
	flags      [4]flagValue
}

// valueFlags are the flags, of every tool, that take the next argument
// as their value when it is not given with "=".
var valueFlags = map[string]bool{
	"-n": true, "--namespace": true,
	"-l": true, "--selector": true,
	"-o": true, "--output": true,
	"--for": true, "--timeout": true,
	"-f": true, "--filename": true, "--values": true,
	"-c": true, "-w": true, "--max-time": true, "-m": true, "--mode": true,
	"--verb": true, "--resource": true,
	"-s": true,
}

// ParseFlags scans args, which it only reads: they may be an argv
// shared with every other run of the script. Given again, a flag takes
// its last value.
func ParseFlags(args []string, buf *FlagBuf) FlagSet {
	fs := FlagSet{Positional: buf.positional[:0], flags: buf.flags[:0]}
	for i := 0; i < len(args); i++ {
		a := args[i]
		if !strings.HasPrefix(a, "-") || a == "-" {
			fs.Positional = append(fs.Positional, a)
			continue
		}
		name, val := a, "true"
		if eq := strings.Index(a, "="); eq >= 0 {
			name, val = a[:eq], a[eq+1:]
		} else if valueFlags[a] && i+1 < len(args) {
			val = args[i+1]
			i++
		}
		at := 0
		for at < len(fs.flags) && fs.flags[at].name != name {
			at++
		}
		if at == len(fs.flags) {
			fs.flags = append(fs.flags, flagValue{name, val})
		} else {
			fs.flags[at].value = val
		}
	}
	return fs
}

func (fs FlagSet) lookup(name string) (string, bool) {
	for i := range fs.flags {
		if fs.flags[i].name == name {
			return fs.flags[i].value, true
		}
	}
	return "", false
}

// Get returns the value of the first of names that was given.
func (fs FlagSet) Get(names ...string) string {
	for _, n := range names {
		if v, ok := fs.lookup(n); ok {
			return v
		}
	}
	return ""
}

// Has reports whether any of names was given.
func (fs FlagSet) Has(names ...string) bool {
	for _, n := range names {
		if _, ok := fs.lookup(n); ok {
			return true
		}
	}
	return false
}

// Curl returns the curl builtin, simulating the invocations unit tests
// use to probe services: "curl -s -o /dev/null -w "%{http_code}"
// $host_ip:5000". probe answers an HTTP GET of path at host:port with a
// status code and a body, or ok false when nothing listens there. It
// reads -s, -o, -w, -f (an answer of 400 or more is exit 22 with no
// body) and -m, and refuses any other option by name.
func Curl(probe func(host string, port int, path string) (code int, body string, ok bool)) Builtin {
	return func(in *Interp, io *IO, args []string) int {
		var url, outFile, writeFmt string
		silent, fail := false, false
		for i := 0; i < len(args); i++ {
			a := args[i]
			switch {
			case a == "-s" || a == "--silent":
				silent = true
			case a == "-f" || a == "--fail":
				fail = true
			case a == "-L" || a == "-k":
				// Accepted and ignored: no simulated service redirects
				// (-L follows redirects) or serves TLS (-k skips its
				// certificate check).
			case a == "-o" && i+1 < len(args):
				outFile = args[i+1]
				i++
			case a == "-w" && i+1 < len(args):
				writeFmt = args[i+1]
				i++
			case (a == "-m" || a == "--max-time") && i+1 < len(args):
				i++ // budget only matters on failure; probes are instant
			case a == "-o" || a == "-w" || a == "-m" || a == "--max-time":
				// Its value is missing, and so is the URL.
			case strings.HasPrefix(a, "-"):
				fmt.Fprintf(io.Err, "curl: %s is not supported\n", a)
				return 2
			default:
				url = a
			}
		}
		if url == "" {
			fmt.Fprintln(io.Err, "curl: no URL specified")
			return 2
		}
		host, port, path := splitURL(url)
		code, body, ok := probe(host, port, path)
		if !ok {
			if !silent {
				fmt.Fprintf(io.Err, "curl: (7) Failed to connect to %s port %d: Connection refused\n", host, port)
			}
			writeOut(io.Out, writeFmt, 0)
			return 7
		}
		if fail && code >= 400 {
			if !silent {
				fmt.Fprintf(io.Err, "curl: (22) The requested URL returned error: %d\n", code)
			}
			writeOut(io.Out, writeFmt, code)
			return 22
		}
		if outFile != "" {
			if outFile != "/dev/null" {
				in.FS[outFile] = body
			}
		} else {
			io.Out.WriteString(body)
			if body != "" && !strings.HasSuffix(body, "\n") {
				io.Out.WriteString("\n")
			}
		}
		writeOut(io.Out, writeFmt, code)
		return 0
	}
}

// writeOut writes curl's -w format with each %{http_code} replaced by
// code, which is "000" when nothing answered.
func writeOut(out *Stream, format string, code int) {
	const httpCode = "%{http_code}"
	for format != "" {
		i := strings.Index(format, httpCode)
		if i < 0 {
			out.WriteString(format)
			return
		}
		out.WriteString(format[:i])
		if code == 0 {
			out.WriteString("000")
		} else {
			out.WriteInt(code)
		}
		format = format[i+len(httpCode):]
	}
}

// splitURL splits [scheme://]host[:port][/path]; the port defaults to
// 80 and the path to "/".
func splitURL(url string) (host string, port int, path string) {
	rest := url
	if i := strings.Index(rest, "://"); i >= 0 {
		rest = rest[i+3:]
	}
	path = "/"
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		path = rest[i:]
		rest = rest[:i]
	}
	host = rest
	port = 80
	if i := strings.LastIndexByte(rest, ':'); i >= 0 {
		host = rest[:i]
		if digits := rest[i+1:]; digits != "" && strings.Trim(digits, "0123456789") == "" {
			if p, err := strconv.Atoi(digits); err == nil {
				port = p
			}
		}
	}
	return host, port, path
}
