package main

import (
	"fixture/internal/a"
	"fixture/internal/b"
)

func main() {
	b.Run(nil)
	b.Probe(b.Info{}, &a.Config{})
	b.Area(a.Square{})
	new(a.Log).Add(1)
}
