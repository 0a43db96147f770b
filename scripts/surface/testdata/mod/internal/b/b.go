package b

import "fixture/internal/a"

// Shape is the interface a.Square satisfies.
type Shape interface{ Area() float64 }

var _ Shape = a.Square{}

// Run calls Use through an interface.
func Run(u interface{ Use() }) { u.Use() }
