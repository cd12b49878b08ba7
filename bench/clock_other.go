//go:build !linux

package main

import "time"

// stamp is a wall-clock reading where the process CPU clock of clock.go
// is not available.
type stamp int64

var clockStart = time.Now()

func now() stamp { return stamp(time.Since(clockStart)) }

func since(s stamp) time.Duration { return time.Duration(now() - s) }
