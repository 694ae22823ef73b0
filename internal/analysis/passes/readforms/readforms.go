// Package readforms is the single source of truth for the repo's blocking
// read vocabulary, shared by the protocol and locks passes. The
// absolute-deadline forms (ReadUntil/ReadResultUntil) came after the
// relative ones (ReadWithin/ReadResultWithin/WaitWithin), and a table
// grown by hand in one pass missed them — the kind of drift this package
// ends: one table, two passes, one regression fixture suite.
package readforms

// Deadline maps the deadline-carrying read/wait method names — the forms
// whose final result (error or ok) must be consumed, because a dropped
// timeout silently loses a protocol message. The *Within forms take a
// relative time.Duration; the *Until forms take the absolute time.Time a
// propagated request deadline arrives as.
var Deadline = map[string]bool{
	"ReadWithin":       true,
	"ReadUntil":        true,
	"ReadResultWithin": true,
	"ReadResultUntil":  true,
	"WaitWithin":       true,
}

// Bare holds the bare (deadline-free) blocking reads on the manifold/core
// protocol surface. The locks pass reports any of these, or a Deadline
// form, made while a lock may be held.
var Bare = map[string]bool{
	"Read":       true,
	"MustRead":   true,
	"ReadResult": true,
	"Wait":       true,
	"Terminated": true,
}
