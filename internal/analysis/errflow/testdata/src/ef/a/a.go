// Package a exercises the errflow violation classes: dropped error
// results (statement, defer, go), blank discards, errors unchecked on
// some path, unchecked errors overwritten, bare cross-package errors
// returned from exported functions, fmt.Errorf without %w, sentinel
// comparisons, malformed directives — plus the sanctioned idioms
// (checked errors, wrapping, never-failing writers, and an accepted
// `//lint:allow errflow` suppression).
package a

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"ef/b"
)

// ErrGone is the exported sentinel for the comparison classes.
var ErrGone = errors.New("gone")

func work() error { return nil }

func pair() (int, error) { return 0, nil }

// Drop discards error results at statement level in all three forms.
func Drop() {
	work()       // want `statement-level call discards the error result of work`
	defer work() // want `deferred call discards the error result of work`
	go work()    // want `go statement discards the error result of work`
}

// Blank discards error results into the blank identifier.
func Blank() {
	_ = work()     // want `error result of work discarded with _`
	n, _ := pair() // want `error result of pair discarded with _`
	_ = n
}

// LeakOnOnePath checks the error only on the b branch; the fall
// through path returns with the error never looked at.
func LeakOnOnePath(flag bool) {
	err := work() // want `error assigned from this call is not checked on every path through LeakOnOnePath`
	if flag {
		fmt.Println(err)
	}
}

// Overwrite loses the first failure before anyone saw it.
func Overwrite() error {
	err := work()
	err = work() // want `unchecked error from line \d+ is overwritten in Overwrite`
	return err
}

// LoopOverwrite does the same through a loop-carried fact: iteration
// i+1 clobbers iteration i's unchecked error.
func LoopOverwrite(n int) error {
	var err error
	for i := 0; i < n; i++ {
		err = work() // want `unchecked error from line \d+ is overwritten in LoopOverwrite`
	}
	return err
}

// Open returns stdlib errors bare across the package boundary.
func Open(p string) error {
	f, err := os.Open(p)
	if err != nil {
		return err // want `error from another package \(call at line \d+\) crosses the boundary of exported Open unwrapped`
	}
	return f.Close() // want `cross-package error from f.Close is returned by exported Open unwrapped`
}

// Relay leaks a sibling package's error shape verbatim.
func Relay() error {
	return b.Do() // want `cross-package error from b.Do is returned by exported Relay unwrapped`
}

// OpenWrapped adds context with %w: clean.
func OpenWrapped(p string) error {
	_, err := os.Open(p)
	if err != nil {
		return fmt.Errorf("opening %s: %w", p, err)
	}
	return nil
}

// WrapV flattens the cause chain to text.
func WrapV(p string) error {
	_, err := os.Open(p)
	if err != nil {
		return fmt.Errorf("opening %s: %v", p, err) // want `fmt.Errorf formats an error-typed argument without %w`
	}
	return nil
}

// IsGone compares against an exported sentinel with ==.
func IsGone(err error) bool {
	return err == ErrGone // want `comparison against exported error sentinel ErrGone with ==`
}

// NotBusy compares against a foreign sentinel with !=.
func NotBusy(err error) bool {
	return err != b.ErrBusy // want `comparison against exported error sentinel ErrBusy with !=`
}

// SwitchGone dispatches on an error tag with sentinel cases.
func SwitchGone(err error) int {
	switch err {
	case ErrGone: // want `switch case compares against exported error sentinel ErrGone`
		return 1
	}
	return 0
}

// IsGoneRight uses errors.Is: clean.
func IsGoneRight(err error) bool {
	return errors.Is(err, ErrGone)
}

// Checked handles its error on every path: clean.
func Checked() int {
	if err := work(); err != nil {
		return 1
	}
	return 0
}

// render has no error channel of its own, so Fprint drops are
// sanctioned: a void renderer cannot propagate a writer failure.
func render(w io.Writer, v int) {
	fmt.Fprintf(w, "v=%d\n", v)
}

// emit does return an error, so only never-failing writers are exempt.
func emit(w io.Writer) error {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "head\n")
	var sb strings.Builder
	sb.WriteString("x")
	fmt.Fprintf(w, "tail\n") // want `statement-level call discards the error result of fmt.Fprintf`
	_, err := w.Write(buf.Bytes())
	return err
}

// Probe documents a deliberate fire-and-forget; the suppression is
// accepted, so no diagnostic survives.
func Probe() {
	work() //lint:allow errflow best-effort probe; the next tick retries and reports
}

func misdirected() {
	var x = 1 /* // want `misplaced //errflow:status-mapper` */ //errflow:status-mapper
	_ = x
	//errflow:wat is not a thing // want `unrecognized //errflow: directive`
	var y = 2 /* // want `unrecognized //errflow: directive "//errflow:passthrough"` */ //errflow:passthrough
	_ = y
}
