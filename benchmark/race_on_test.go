//go:build race

package main

// raceBuild reports that the race detector is on. It makes the chain several
// times slower, so the smoke runs shrink the PE state to keep ckpt-mixed's
// 400 checkpoints a second sustainable.
const raceBuild = true
