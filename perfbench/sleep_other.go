//go:build !linux

package main

import "time"

// sleepUntil sleeps until t with Go's timer, which elsewhere than Linux
// is the only portable choice.
func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

// pinSleeper does nothing elsewhere than Linux.
func pinSleeper() (unpin func()) { return func() {} }
