package shell

import (
	"fmt"
	"time"
)

// IO carries a command's standard streams. Out and Err start at the two
// streams the IO owns; a pipeline stage's Err, a redirection or "2>&1"
// points them at someone else's. A pipeline hands a copy of one
// command's Out to the next command as its In. IOs come from and go back
// to their Interp's pool, so a builtin must not keep one, or a stream,
// past its return.
type IO struct {
	In  string
	Out *Stream
	Err *Stream

	out, err Stream
	// files are the ">" and ">>" targets of a redirected command,
	// written to the virtual FS when it returns.
	files []fileOut
}

// fileOut is a redirection of output to a virtual file: where it goes,
// and the pooled IO whose out stream collects it.
type fileOut struct {
	path   string
	append bool
	io     *IO
}

// Builtin is a command implementation. It returns the exit status. Its
// args slice comes from its Interp's pool, like its IO, so a builtin
// must not keep the slice past its return (the strings in it it may).
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

	// ioFree holds the IOs of finished runs, command substitutions,
	// pipeline stages and redirected commands for the next one to take.
	// Their streams keep their buffers, emptied, up to maxPooled each.
	ioFree []*IO
	// argvFree holds the argv slices of finished commands, emptied, for
	// the next command whose words are not all literal to expand into.
	argvFree [][]string
}

// maxPooledArgs is the largest argv a command gives back to the pool.
const maxPooledArgs = 256

// getArgv returns an empty argv to expand a command's words into. A
// command substitution inside one of those words runs its commands on
// argvs of their own: the one it is expanding into is out of the pool.
func (in *Interp) getArgv() []string {
	if n := len(in.argvFree); n > 0 {
		argv := in.argvFree[n-1]
		in.argvFree = in.argvFree[:n-1]
		return argv
	}
	return make([]string, 0, 8)
}

// putArgv recycles an argv from getArgv once its command has returned,
// dropping its strings so that a pooled Interp holds no output.
func (in *Interp) putArgv(argv []string) {
	if cap(argv) > maxPooledArgs {
		return
	}
	clear(argv[:cap(argv)])
	in.argvFree = append(in.argvFree, argv[:0])
}

// getIO returns an empty IO whose Out and Err are its own streams.
func (in *Interp) getIO() *IO {
	if n := len(in.ioFree); n > 0 {
		io := in.ioFree[n-1]
		in.ioFree = in.ioFree[:n-1]
		return io
	}
	io := &IO{}
	io.Out, io.Err = &io.out, &io.err
	return io
}

// putIO recycles an IO from getIO, and the IOs of its files. Whatever
// was taken out of its streams was copied: their buffers are reused.
func (in *Interp) putIO(io *IO) {
	for _, f := range io.files {
		in.putIO(f.io)
	}
	clear(io.files)
	io.files = io.files[:0]
	io.In = ""
	io.out.reset()
	io.err.reset()
	io.Out, io.Err = &io.out, &io.err
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
func (in *Interp) Exec(prog *Program) Result { return in.exec(prog, false) }

// ExecStdout is Exec for a caller that reads only stdout and the exit
// status: the script's top-level stderr is discarded unwritten. A
// "2>&1" still reaches stdout, since it points stderr at whatever
// stdout is.
func (in *Interp) ExecStdout(prog *Program) (stdout string, code int) {
	res := in.exec(prog, true)
	return res.Stdout, res.ExitCode
}

func (in *Interp) exec(prog *Program, dropStderr bool) Result {
	in.exited = false
	io := in.getIO()
	if dropStderr {
		io.Err = discard
	}
	code := in.execList(prog.stmts, io)
	res := Result{Stdout: io.out.String(), Stderr: io.err.String(), ExitCode: code}
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
	last := len(p.cmds) - 1
	for i, cmd := range p.cmds {
		stage := in.getIO()
		stage.In, stage.Err = stdin, io.Err
		if i == last {
			stage.Out = io.Out
		}
		code = in.execNode(cmd, stage)
		if i < last && !in.exited {
			stdin = stage.out.String()
		}
		in.putIO(stage)
		if in.exited {
			return code
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
	if c.argv != nil {
		return in.runArgv(c, c.argv, io)
	}
	buf := in.getArgv()
	argv := buf
	for i := range c.words {
		var err error
		if argv, err = in.expandFields(argv, &c.words[i]); err != nil {
			fmt.Fprintf(io.Err, "shell: line %d: %v\n", c.line, err)
			in.putArgv(buf)
			return 1
		}
	}
	code := in.runArgv(c, argv, io)
	in.putArgv(argv)
	return code
}

// runArgv runs a command whose words have expanded to argv: its
// per-command assignments, its redirections, then the command.
func (in *Interp) runArgv(c *simpleCmd, argv []string, io *IO) int {
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

	if len(c.redirs) == 0 {
		return in.invoke(argv, io)
	}
	cmdIO := in.getIO()
	code := 1
	if err := in.applyRedirs(c.redirs, io, cmdIO); err != nil {
		fmt.Fprintf(io.Err, "shell: line %d: %v\n", c.line, err)
	} else {
		code = in.invoke(argv, cmdIO)
		for _, f := range cmdIO.files {
			if f.append {
				in.FS[f.path] += string(f.io.out.buf)
			} else {
				in.FS[f.path] = f.io.out.String()
			}
		}
	}
	in.putIO(cmdIO)
	return code
}

// applyRedirs points cmdIO's streams where a command's redirections say,
// starting from io's. Output to a file collects in a stream of a pooled
// IO, listed in cmdIO.files; output to /dev/null is discarded unwritten.
func (in *Interp) applyRedirs(redirs []redir, io, cmdIO *IO) error {
	cmdIO.In, cmdIO.Out, cmdIO.Err = io.In, io.Out, io.Err
	for i := range redirs {
		r := &redirs[i]
		target, err := in.expandOne(&r.target)
		if err != nil {
			return err
		}
		switch r.op {
		case "<":
			content, ok := in.FS[target]
			if !ok {
				return fmt.Errorf("%s: no such file", target)
			}
			cmdIO.In = content
		case ">", ">>":
			s := discard
			if target != "/dev/null" {
				f := fileOut{path: target, append: r.op == ">>", io: in.getIO()}
				cmdIO.files = append(cmdIO.files, f)
				s = &f.io.out
			}
			if r.fd == 2 {
				cmdIO.Err = s
			} else {
				cmdIO.Out = s
			}
		case ">&":
			if r.fd == 2 && target == "1" {
				cmdIO.Err = cmdIO.Out
			} else if r.fd == 1 && target == "2" {
				cmdIO.Out = cmdIO.Err
			}
		}
	}
	return nil
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
