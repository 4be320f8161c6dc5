"""The paper's study engine: score scenarios, error matrices, analyses."""
