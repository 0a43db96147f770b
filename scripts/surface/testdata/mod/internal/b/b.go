package b

import "fixture/internal/a"

// Shape is the interface a.Square satisfies.
type Shape interface{ Area() float64 }

// Total reaches a.Square's Area through Shape.
func Total(s Shape) float64 { return s.Area() }

// Area takes a concrete a.Square, so a caller holding another build's
// Square does not type-check.
func Area(s a.Square) float64 { return Total(s) }

// Run calls Use through an interface.
func Run(u interface{ Use() }) { u.Use() }

// Info's Rate is a func field, not a method.
type Info struct{ Rate func() float64 }

// Probe calls the field Rate and writes a.Config.Written without reading it.
func Probe(i Info, c *a.Config) float64 {
	c.Written = 1
	seen := map[a.Key]bool{{X: 1}: true}
	if seen[a.Key{}] {
		return 0
	}
	return i.Rate()
}
