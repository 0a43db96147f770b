package a

// OwnTestOnly is called only by this package's test.
func OwnTestOnly() {}

// OtherTest is called only by package b's test.
func OtherTest() {}

// Square's Area is reached only through b.Shape.
type Square struct{ Side float64 }

func (s Square) Area() float64 { return s.Side * s.Side }

// Orphan is named only by its method's receiver.
type Orphan struct{}

func (o *Orphan) Use() {}
