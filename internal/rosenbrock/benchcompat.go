package rosenbrock

// The solver name benchmark/ still sends and names from the deleted GMRES
// solver. Delete with "gmres" in benchmark/'s mixedShapes.

// Deprecated: GMRES runs ILU; it is the same LinearSolver in every respect.
const GMRES = ILU
