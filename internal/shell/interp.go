package shell

import (
	"fmt"
	"strings"
	"time"
)

// IO carries a command's standard streams. Pipelines connect one
// command's Out to the next command's In.
type IO struct {
	In  string
	Out *strings.Builder
	Err *strings.Builder
}

func newIO(stdin string) *IO {
	return &IO{In: stdin, Out: &strings.Builder{}, Err: &strings.Builder{}}
}

// Builtin is a command implementation. It returns the exit status.
type Builtin func(in *Interp, io *IO, args []string) int

// Interp executes parsed scripts. The zero value is not usable; call
// New.
type Interp struct {
	// Env holds shell variables.
	Env map[string]string
	// FS is the virtual filesystem commands read and write.
	FS map[string]string
	// Builtins maps command names to implementations added by the
	// embedder (kubectl and friends). The coreutils set lives in a
	// shared read-only table that lookup falls back to, so building an
	// interpreter does not copy it; an entry here shadows a core
	// builtin of the same name.
	Builtins map[string]Builtin
	// AdvanceClock receives virtual-time advances from sleep/timeout/
	// kubectl wait. Nil means time is discarded.
	AdvanceClock func(time.Duration)
	// MaxSteps bounds total command executions to stop runaway loops.
	MaxSteps int

	steps    int
	lastExit int
	exited   bool

	// ioFree holds the IOs of finished runs and command substitutions
	// for the next one to take. Their builders have been Reset, which
	// drops the buffer: nothing of an execution is retained here.
	ioFree []*IO
}

func (in *Interp) getIO() *IO {
	if n := len(in.ioFree); n > 0 {
		io := in.ioFree[n-1]
		in.ioFree = in.ioFree[:n-1]
		return io
	}
	return newIO("")
}

// putIO recycles an IO from getIO. Strings taken from its builders
// stay valid: Reset abandons the buffer, it does not reuse it.
func (in *Interp) putIO(io *IO) {
	io.In = ""
	io.Out.Reset()
	io.Err.Reset()
	in.ioFree = append(in.ioFree, io)
}

// New returns an interpreter with the coreutils builtins installed.
func New() *Interp {
	return &Interp{
		Env:      make(map[string]string),
		FS:       make(map[string]string),
		Builtins: make(map[string]Builtin, 8),
		MaxSteps: 200000,
	}
}

// Reset returns the interpreter to its post-New state — variables,
// virtual files, step budget and exit state cleared — while keeping
// the embedder-registered Builtins wired. Environment pools use this
// to recycle interpreters instead of rebuilding them per execution.
func (in *Interp) Reset() {
	clear(in.Env)
	clear(in.FS)
	in.steps = 0
	in.lastExit = 0
	in.exited = false
}

// Advance forwards virtual time to the embedder's clock.
func (in *Interp) Advance(d time.Duration) {
	if in.AdvanceClock != nil && d > 0 {
		in.AdvanceClock(d)
	}
}

// Result is the outcome of running a script.
type Result struct {
	Stdout   string
	Stderr   string
	ExitCode int
}

// Run parses and executes a script; see Exec.
func (in *Interp) Run(script string) (Result, error) {
	prog, err := Parse(script)
	if err != nil {
		return Result{}, err
	}
	return in.Exec(prog), nil
}

// Exec executes a compiled script from a clean control-flow state
// (variables, files and builtins persist across calls).
func (in *Interp) Exec(prog *Program) Result {
	in.exited = false
	io := in.getIO()
	code := in.execList(prog.stmts, io)
	res := Result{Stdout: io.Out.String(), Stderr: io.Err.String(), ExitCode: code}
	in.putIO(io)
	return res
}

func (in *Interp) execList(stmts []node, io *IO) int {
	code := 0
	for _, s := range stmts {
		code = in.execNode(s, io)
		if in.exited {
			return in.lastExit
		}
	}
	return code
}

func (in *Interp) execNode(n node, io *IO) int {
	if in.steps++; in.steps > in.MaxSteps {
		fmt.Fprintf(io.Err, "shell: step limit exceeded (%d); aborting\n", in.MaxSteps)
		in.exited = true
		in.lastExit = 124
		return 124
	}
	var code int
	switch t := n.(type) {
	case *andOr:
		code = in.execNode(t.left, io)
		if in.exited {
			return code
		}
		if t.op == "&&" && code == 0 || t.op == "||" && code != 0 {
			code = in.execNode(t.right, io)
		}
	case *pipeline:
		code = in.execPipeline(t, io)
	case *simpleCmd:
		code = in.execSimple(t, io)
	case *ifCmd:
		code = in.execIf(t, io)
	case *forCmd:
		code = in.execFor(t, io)
	case *whileCmd:
		code = in.execWhile(t, io)
	case *condCmd:
		ok, err := in.evalCond(t.words)
		if err != nil {
			fmt.Fprintf(io.Err, "shell: line %d: %v\n", t.line, err)
			code = 2
		} else if ok {
			code = 0
		} else {
			code = 1
		}
	case *notCmd:
		if in.execNode(t.cmd, io) == 0 {
			code = 1
		} else {
			code = 0
		}
	case *arithCmd:
		v, err := in.evalArith(t.expr)
		if err != nil {
			fmt.Fprintf(io.Err, "shell: line %d: %v\n", t.line, err)
			code = 1
		} else if v != 0 {
			code = 0
		} else {
			code = 1
		}
	default:
		fmt.Fprintf(io.Err, "shell: unknown node %T\n", n)
		code = 1
	}
	in.lastExit = code
	return code
}

func (in *Interp) execPipeline(p *pipeline, io *IO) int {
	stdin := io.In
	code := 0
	for i, cmd := range p.cmds {
		stage := &IO{In: stdin, Out: &strings.Builder{}, Err: io.Err}
		if i == len(p.cmds)-1 {
			stage.Out = io.Out
		}
		code = in.execNode(cmd, stage)
		if in.exited {
			return code
		}
		if i < len(p.cmds)-1 {
			stdin = stage.Out.String()
		}
	}
	return code
}

func (in *Interp) execIf(c *ifCmd, io *IO) int {
	if in.execList(c.cond, io) == 0 && !in.exited {
		return in.execList(c.then, io)
	}
	if in.exited {
		return in.lastExit
	}
	for _, e := range c.elifs {
		if in.execList(e.cond, io) == 0 && !in.exited {
			return in.execList(e.then, io)
		}
		if in.exited {
			return in.lastExit
		}
	}
	if c.elseBody != nil {
		return in.execList(c.elseBody, io)
	}
	return 0
}

func (in *Interp) execFor(c *forCmd, io *IO) int {
	var items []string
	for i := range c.items {
		var err error
		if items, err = in.expandFields(items, &c.items[i]); err != nil {
			fmt.Fprintf(io.Err, "shell: for: %v\n", err)
			return 1
		}
	}
	code := 0
	for _, item := range items {
		in.Env[c.varName] = item
		code = in.execList(c.body, io)
		if in.exited {
			return code
		}
	}
	return code
}

func (in *Interp) execWhile(c *whileCmd, io *IO) int {
	code := 0
	for {
		if in.execList(c.cond, io) != 0 || in.exited {
			return code
		}
		code = in.execList(c.body, io)
		if in.exited {
			return code
		}
	}
}

func (in *Interp) execSimple(c *simpleCmd, io *IO) int {
	// Assignment-only command: set variables.
	if len(c.words) == 0 && c.argv == nil {
		for i := range c.assigns {
			a := &c.assigns[i]
			val, err := in.expandOne(&a.val)
			if err != nil {
				fmt.Fprintf(io.Err, "shell: %v\n", err)
				return 1
			}
			in.Env[a.name] = val
		}
		return 0
	}
	argv := c.argv
	if argv == nil {
		argv = make([]string, 0, len(c.words))
		for i := range c.words {
			var err error
			if argv, err = in.expandFields(argv, &c.words[i]); err != nil {
				fmt.Fprintf(io.Err, "shell: line %d: %v\n", c.line, err)
				return 1
			}
		}
	}
	if len(argv) == 0 {
		return 0
	}
	// Temporary per-command assignments become plain env updates (our
	// builtins all read Env directly).
	for i := range c.assigns {
		a := &c.assigns[i]
		val, err := in.expandOne(&a.val)
		if err != nil {
			fmt.Fprintf(io.Err, "shell: %v\n", err)
			return 1
		}
		in.Env[a.name] = val
	}

	cmdIO, finish, err := in.applyRedirs(c.redirs, io)
	if err != nil {
		fmt.Fprintf(io.Err, "shell: line %d: %v\n", c.line, err)
		return 1
	}
	code := in.invoke(argv, cmdIO)
	finish()
	return code
}

// applyRedirs builds the IO a command should run with and a finish
// function that flushes redirected output into the virtual FS.
func (in *Interp) applyRedirs(redirs []redir, io *IO) (*IO, func(), error) {
	if len(redirs) == 0 {
		return io, func() {}, nil
	}
	cmdIO := &IO{In: io.In, Out: io.Out, Err: io.Err}
	var flushes []func()
	for i := range redirs {
		r := &redirs[i]
		target, err := in.expandOne(&r.target)
		if err != nil {
			return nil, nil, err
		}
		switch r.op {
		case "<":
			content, ok := in.FS[target]
			if !ok {
				return nil, nil, fmt.Errorf("%s: no such file", target)
			}
			cmdIO.In = content
		case ">", ">>":
			buf := &strings.Builder{}
			tgt, op := target, r.op
			if r.fd == 2 {
				cmdIO.Err = buf
			} else {
				cmdIO.Out = buf
			}
			flushes = append(flushes, func() {
				if tgt == "/dev/null" {
					return
				}
				if op == ">>" {
					in.FS[tgt] = in.FS[tgt] + buf.String()
				} else {
					in.FS[tgt] = buf.String()
				}
			})
		case ">&":
			if r.fd == 2 && target == "1" {
				cmdIO.Err = cmdIO.Out
			} else if r.fd == 1 && target == "2" {
				cmdIO.Out = cmdIO.Err
			}
		}
	}
	return cmdIO, func() {
		for _, f := range flushes {
			f()
		}
	}, nil
}

// invoke dispatches argv[0] to a builtin.
func (in *Interp) invoke(argv []string, io *IO) int {
	name := argv[0]
	if name == "[" {
		args := argv[1:]
		if len(args) == 0 || args[len(args)-1] != "]" {
			fmt.Fprintln(io.Err, "[: missing ]")
			return 2
		}
		ok, err := in.evalCondExpanded(args[:len(args)-1])
		if err != nil {
			fmt.Fprintf(io.Err, "[: %v\n", err)
			return 2
		}
		if ok {
			return 0
		}
		return 1
	}
	if b, ok := in.Builtins[name]; ok {
		return b(in, io, argv[1:])
	}
	if b, ok := coreBuiltins[name]; ok {
		return b(in, io, argv[1:])
	}
	fmt.Fprintf(io.Err, "shell: %s: command not found\n", name)
	return 127
}

// LastExit exposes the last command's exit code ($?).
func (in *Interp) LastExit() int { return in.lastExit }

// Exit terminates the running script with the given code. Exposed for
// builtins.
func (in *Interp) Exit(code int) {
	in.exited = true
	in.lastExit = code
}
