package matching

// Exported for the external tests, which contract levels through
// internal/coarsen (an importer of this package).
var HeavyEdgeRated = heavyEdge
