let version = "1.0.0"
