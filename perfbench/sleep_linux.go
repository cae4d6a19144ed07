package main

import (
	"runtime"
	"syscall"
	"time"
)

// prctl options for the calling thread's timer slack.
const (
	prSetTimerSlack = 29
	prGetTimerSlack = 30
)

// pinSleeper locks the calling goroutine to its thread and sets that
// thread's timer slack to 1 ns, so that sleepUntil wakes as soon as the
// kernel can instead of up to the default 50 µs late; unpin undoes both.
// A prctl failure leaves the default slack, which only costs precision.
func pinSleeper() (unpin func()) {
	runtime.LockOSThread()
	var old uintptr
	if r, _, errno := syscall.RawSyscall(syscall.SYS_PRCTL, prGetTimerSlack, 0, 0); errno == 0 {
		old = r
	}
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	return func() {
		if old > 0 {
			syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, old, 0)
		}
		runtime.UnlockOSThread()
	}
}

// sleepUntil blocks the calling thread in nanosleep until t. Go's own
// timers wake with millisecond granularity on Linux and now and then
// several milliseconds late, which a dispatcher would add to every
// request timed from its due time; the kernel's nanosleep wakes within
// tens of microseconds. Spinning instead would keep a goroutine runnable
// at all times, and the scheduler then finds it before it polls the
// network, delaying every request the server has to pick up.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		// EINTR only cuts the sleep short; the loop sleeps the rest.
		_ = syscall.Nanosleep(&ts, nil)
	}
}
