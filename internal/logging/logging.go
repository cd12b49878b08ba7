// Package logging is the command line the Iris binaries share: the
// -log-level/-log-json pair, the structured slog logger it selects
// (a text or JSON handler tagged with the owning component), and the
// exit status of a failure. It exists so irisd, irisfleet, irisctl,
// irisplan and irisbench declare and parse the pair identically and exit
// alike.
package logging

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// errUsage marks a bad command line.
var errUsage = errors.New("bad usage")

// Parse declares -log-level and -log-json on fs, the one declaration of
// the pair, parses args on fs and returns the logger the pair selects,
// writing to w and tagging every record with component. A bad command
// line — one the flag package rejects, or an unknown level — is reported
// on w and returned as an error ExitCode maps to 2.
func Parse(fs *flag.FlagSet, args []string, w io.Writer, component string) (*slog.Logger, error) {
	level := fs.String("log-level", "info", "log level: debug, info, warn or error")
	jsonFormat := fs.Bool("log-json", false, "emit logs as JSON instead of text")
	fs.SetOutput(w)
	if err := fs.Parse(args); err != nil {
		return nil, fmt.Errorf("%w: %w", errUsage, err)
	}
	log, err := newLogger(w, *level, *jsonFormat, component)
	if err != nil {
		fmt.Fprintln(w, component+":", err)
		return nil, fmt.Errorf("%w: %w", errUsage, err)
	}
	return log, nil
}

// ExitCode is a binary's exit status for the error its run returned: 0
// for none and for -h, 2 for a bad command line, as the flag package's
// ExitOnError gives, and 1 for any other failure.
func ExitCode(err error) int {
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		return 2
	}
	return 1
}

// newLogger returns a logger writing to w at the named level ("debug",
// "info", "warn", "error"; case-insensitive), as JSON when jsonFormat is
// set and as logfmt-style text otherwise. Every record carries component.
func newLogger(w io.Writer, level string, jsonFormat bool, component string) (*slog.Logger, error) {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "", "info":
		lv = slog.LevelInfo
	case "debug":
		lv = slog.LevelDebug
	case "warn", "warning":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("logging: unknown level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	var h slog.Handler
	if jsonFormat {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	return slog.New(h).With("component", component), nil
}
