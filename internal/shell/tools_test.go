package shell

import (
	"fmt"
	"testing"
)

// TestCurl runs the one curl against a fake probe: which flags it reads
// and which it refuses, what it hands the probe of a URL, and what it
// prints and exits with when something answers, when it answers 404
// with and without -f, and when nothing does.
func TestCurl(t *testing.T) {
	cases := []struct {
		cmd            string
		stdout, stderr string
		exit           int
		probed         string // host port path the probe was asked, "" for no probe
		file           string // out.txt afterwards
	}{
		{cmd: "curl web:8080/health", stdout: "web ok\n", probed: "web 8080 /health"},
		{cmd: "curl -s http://web:8080", stdout: "web ok\n", probed: "web 8080 /"},
		{cmd: "curl --silent web:8080", stdout: "web ok\n", probed: "web 8080 /"},
		{cmd: `curl -s -o /dev/null -w '%{http_code}' http://web:5000/x`, stdout: "200", probed: "web 5000 /x"},
		{cmd: "curl -s -o out.txt web:81", probed: "web 81 /", file: "web ok"},
		{cmd: `curl -w ' code=%{http_code}' web:81`, stdout: "web ok\n code=200", probed: "web 81 /"},
		{cmd: "curl -m 5 web:81", stdout: "web ok\n", probed: "web 81 /"},
		{cmd: "curl --max-time 5 web:81", stdout: "web ok\n", probed: "web 81 /"},
		{cmd: "curl -L -k web:81", stdout: "web ok\n", probed: "web 81 /"},
		{cmd: "curl --compressed web:81", stderr: "curl: --compressed is not supported\n", exit: 2},
		{cmd: "curl -sS web:81", stderr: "curl: -sS is not supported\n", exit: 2},
		{cmd: "curl gone:81/x", stdout: "not found\n", probed: "gone 81 /x"},
		{cmd: "curl -f web:81", stdout: "web ok\n", probed: "web 81 /"},
		{cmd: "curl -f gone:81/x", stderr: "curl: (22) The requested URL returned error: 404\n", exit: 22, probed: "gone 81 /x"},
		{cmd: `curl -s --fail -w '%{http_code}' gone:81`, stdout: "404", exit: 22, probed: "gone 81 /"},
		{cmd: "curl -s -f -o out.txt gone:81", exit: 22, probed: "gone 81 /"},
		{cmd: "curl empty:81", probed: "empty 81 /"},
		{cmd: "curl http://web/", stdout: "web ok\n", probed: "web 80 /"},
		{cmd: "curl web", stdout: "web ok\n", probed: "web 80 /"},
		{cmd: "curl https://web:8443/api/v1?watch=1", stdout: "web ok\n", probed: "web 8443 /api/v1?watch=1"},
		{cmd: "curl web:port/", stdout: "web ok\n", probed: "web 80 /"},
		{cmd: "curl", stderr: "curl: no URL specified\n", exit: 2},
		{cmd: "curl -s -o", stderr: "curl: no URL specified\n", exit: 2},
		{cmd: "curl down:9/x", stderr: "curl: (7) Failed to connect to down port 9: Connection refused\n", exit: 7, probed: "down 9 /x"},
		{cmd: "curl -s down:9", exit: 7, probed: "down 9 /"},
		{cmd: `curl -s -o /dev/null -w '%{http_code}' down:9`, stdout: "000", exit: 7, probed: "down 9 /"},
		{cmd: `curl -w '%{http_code}' down`, stdout: "000", stderr: "curl: (7) Failed to connect to down port 80: Connection refused\n", exit: 7, probed: "down 80 /"},
	}
	for _, c := range cases {
		var probed string
		in := New()
		in.Builtins["curl"] = Curl(func(host string, port int, path string) (int, string, bool) {
			probed = fmt.Sprint(host, " ", port, " ", path)
			switch host {
			case "web":
				return 200, "web ok", true
			case "empty":
				return 204, "", true
			case "gone":
				return 404, "not found", true
			}
			return 0, "", false
		})
		res, err := runOn(in, c.cmd)
		if err != nil {
			t.Fatalf("%s: %v", c.cmd, err)
		}
		if res.Stdout != c.stdout || res.Stderr != c.stderr || res.ExitCode != c.exit {
			t.Errorf("%s: stdout %q, stderr %q, exit %d; want %q, %q, %d", c.cmd, res.Stdout, res.Stderr, res.ExitCode, c.stdout, c.stderr, c.exit)
		}
		if probed != c.probed {
			t.Errorf("%s: probed %q, want %q", c.cmd, probed, c.probed)
		}
		if in.FS["out.txt"] != c.file {
			t.Errorf("%s: out.txt = %q, want %q", c.cmd, in.FS["out.txt"], c.file)
		}
	}
}

// TestParseFlags: the one flag scanner every family's tools use.
func TestParseFlags(t *testing.T) {
	var buf FlagBuf
	fs := ParseFlags([]string{"get", "pods", "-n", "prod", "--output=name", "-A", "-", "-n", "dev", "--selector", "app=web", "--wait", "-f"}, &buf)
	if got := fmt.Sprint(fs.Positional); got != "[get pods -]" {
		t.Errorf("positional = %s", got)
	}
	for _, c := range []struct {
		names []string
		want  string
	}{
		{[]string{"-n"}, "dev"}, // given again, a flag takes its last value
		{[]string{"--namespace", "-n"}, "dev"},
		{[]string{"-o", "--output"}, "name"},
		{[]string{"-l", "--selector"}, "app=web"},
		{[]string{"-A"}, "true"},
		{[]string{"-f"}, "true"}, // a value flag with nothing after it
		{[]string{"--timeout"}, ""},
	} {
		if got := fs.Get(c.names...); got != c.want {
			t.Errorf("Get(%q) = %q, want %q", c.names, got, c.want)
		}
	}
	if !fs.Has("--all-namespaces", "-A") || !fs.Has("--wait") || fs.Has("-q", "--quiet") {
		t.Errorf("Has: flags %+v", fs.flags)
	}
}
